package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// withKernel runs fn with the given kernel selected, restoring the
// previous selection afterwards.
func withKernel(t testing.TB, k Kernel, fn func()) {
	t.Helper()
	prev := SetKernel(k)
	defer SetKernel(prev)
	fn()
}

func TestKernelNames(t *testing.T) {
	for _, k := range []Kernel{KernelAuto, KernelScalar, KernelAVX2, KernelFused, KernelGFNI} {
		got, ok := ParseKernel(k.String())
		if !ok || got != k {
			t.Errorf("ParseKernel(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKernel("simd9000"); ok {
		t.Error("ParseKernel must reject unknown names")
	}
	if got, ok := ParseKernel(""); !ok || got != KernelAuto {
		t.Error("empty kernel name must parse as auto")
	}
}

func TestSetKernelResolvesAuto(t *testing.T) {
	prev := SetKernel(KernelAuto)
	defer SetKernel(prev)
	if ActiveKernel() != BestKernel() {
		t.Fatalf("auto must resolve to BestKernel %v, got %v", BestKernel(), ActiveKernel())
	}
	if HasGFNI() && BestKernel() != KernelGFNI {
		t.Fatalf("BestKernel = %v on a GFNI machine", BestKernel())
	}
	if !HasGFNI() && BestKernel() != KernelFused {
		t.Fatalf("BestKernel = %v without GFNI, want fused", BestKernel())
	}
}

func TestNibbleTablesMatchMul(t *testing.T) {
	for c := 0; c < Order; c++ {
		for n := 0; n < 16; n++ {
			if nibLow[c][n] != Mul(byte(c), byte(n)) {
				t.Fatalf("nibLow[%d][%d] mismatch", c, n)
			}
			if nibHigh[c][n] != Mul(byte(c), byte(n<<4)) {
				t.Fatalf("nibHigh[%d][%d] mismatch", c, n)
			}
		}
	}
}

// differentialLengths covers the unaligned tails the vector kernels must
// get right: every length 0..129 plus block-boundary straddlers.
func differentialLengths() []int {
	lens := make([]int, 0, 140)
	for n := 0; n <= 129; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, 255, 256, 257, 1023, 1024, 4096, 4097, 64*1024, 64*1024+33)
	return lens
}

// TestMulSliceDifferential checks the vector kernel against the scalar
// reference for random coefficients over every tail length, including
// operating on unaligned sub-slices.
func TestMulSliceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range differentialLengths() {
		for trial := 0; trial < 4; trial++ {
			c := byte(rng.Intn(256))
			off := rng.Intn(4)
			buf := make([]byte, n+off)
			rng.Read(buf)
			src := buf[off:]
			want := make([]byte, n)
			got := make([]byte, n)
			withKernel(t, KernelScalar, func() { MulSlice(c, src, want) })
			withKernel(t, KernelAVX2, func() { MulSlice(c, src, got) })
			if !bytes.Equal(got, want) {
				t.Fatalf("MulSlice(c=%d, n=%d, off=%d): vector != scalar", c, n, off)
			}
		}
	}
}

func TestMulAddSliceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range differentialLengths() {
		for trial := 0; trial < 4; trial++ {
			c := byte(rng.Intn(256))
			off := rng.Intn(4)
			buf := make([]byte, n+off)
			rng.Read(buf)
			src := buf[off:]
			base := make([]byte, n)
			rng.Read(base)
			want := append([]byte(nil), base...)
			got := append([]byte(nil), base...)
			withKernel(t, KernelScalar, func() { MulAddSlice(c, src, want) })
			withKernel(t, KernelAVX2, func() { MulAddSlice(c, src, got) })
			if !bytes.Equal(got, want) {
				t.Fatalf("MulAddSlice(c=%d, n=%d, off=%d): vector != scalar", c, n, off)
			}
		}
	}
}

func TestAddSliceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range differentialLengths() {
		src := make([]byte, n)
		base := make([]byte, n)
		rng.Read(src)
		rng.Read(base)
		want := append([]byte(nil), base...)
		got := append([]byte(nil), base...)
		withKernel(t, KernelScalar, func() { AddSlice(src, want) })
		withKernel(t, KernelAVX2, func() { AddSlice(src, got) })
		if !bytes.Equal(got, want) {
			t.Fatalf("AddSlice(n=%d): vector != scalar", n)
		}
	}
}

// TestVectorAliasedExact verifies in-place operation (dst == src), which
// the RS decode path relies on.
func TestVectorAliasedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 31, 32, 33, 64, 100, 4096, 64*1024 + 1} {
		for _, c := range []byte{2, 37, 0x8e, 255} {
			orig := make([]byte, n)
			rng.Read(orig)

			want := append([]byte(nil), orig...)
			withKernel(t, KernelScalar, func() { MulSlice(c, want, want) })
			got := append([]byte(nil), orig...)
			withKernel(t, KernelAVX2, func() { MulSlice(c, got, got) })
			if !bytes.Equal(got, want) {
				t.Fatalf("aliased MulSlice(c=%d, n=%d) mismatch", c, n)
			}

			want2 := append([]byte(nil), orig...)
			withKernel(t, KernelScalar, func() { MulAddSlice(c, want2, want2) })
			got2 := append([]byte(nil), orig...)
			withKernel(t, KernelAVX2, func() { MulAddSlice(c, got2, got2) })
			if !bytes.Equal(got2, want2) {
				t.Fatalf("aliased MulAddSlice(c=%d, n=%d) mismatch", c, n)
			}
		}
	}
	// Aliased AddSlice must zero the slice (x ^ x = 0).
	buf := make([]byte, 1000)
	rng.Read(buf)
	withKernel(t, KernelAVX2, func() { AddSlice(buf, buf) })
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("aliased AddSlice: buf[%d] = %d, want 0", i, b)
		}
	}
}

// TestVectorEveryCoefficient sweeps all 256 coefficients at one awkward
// length so every shuffle table row is exercised.
func TestVectorEveryCoefficient(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	src := make([]byte, 97)
	rng.Read(src)
	want := make([]byte, len(src))
	got := make([]byte, len(src))
	for c := 0; c < 256; c++ {
		withKernel(t, KernelScalar, func() { MulSlice(byte(c), src, want) })
		withKernel(t, KernelAVX2, func() { MulSlice(byte(c), src, got) })
		if !bytes.Equal(got, want) {
			t.Fatalf("coefficient %d: vector != scalar", c)
		}
	}
}

func BenchmarkKernels(b *testing.B) {
	src := make([]byte, 64*1024)
	dst := make([]byte, 64*1024)
	rand.New(rand.NewSource(3)).Read(src)
	for _, k := range []Kernel{KernelScalar, KernelAVX2} {
		for _, op := range []string{"MulSlice", "MulAddSlice", "AddSlice"} {
			b.Run(fmt.Sprintf("%s/%s", op, k), func(b *testing.B) {
				prev := SetKernel(k)
				defer SetKernel(prev)
				b.SetBytes(int64(len(src)))
				for i := 0; i < b.N; i++ {
					switch op {
					case "MulSlice":
						MulSlice(0x57, src, dst)
					case "MulAddSlice":
						MulAddSlice(0x57, src, dst)
					case "AddSlice":
						AddSlice(src, dst)
					}
				}
			})
		}
	}
}
