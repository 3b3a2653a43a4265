package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// sliceTier is one single-source tier kernel, called directly rather than
// through the exported entry points, so every tier is tested on every
// machine. A tier the CPU lacks falls back to the widest one it has, so
// running the full list everywhere is both safe and meaningful.
type sliceTier struct {
	name string
	fn   func(c byte, src, dst []byte)
}

func mulSliceTiers() []sliceTier {
	return []sliceTier{{"vector", mulSliceVector}, {"gfni", mulSliceGFNI}}
}

func mulAddSliceTiers() []sliceTier {
	return []sliceTier{{"vector", mulAddSliceVector}, {"gfni", mulAddSliceGFNI}}
}

// addSliceRef is the plain XOR loop addSliceVector is checked against.
func addSliceRef(src, dst []byte) {
	for i, s := range src {
		dst[i] ^= s
	}
}

func TestKernelNames(t *testing.T) {
	for k, want := range map[Kernel]string{KernelFused: "fused", KernelGFNI: "gfni", KernelGFNI + 1: "unknown"} {
		if got := k.String(); got != want {
			t.Errorf("Kernel(%d).String() = %q, want %q", uint32(k), got, want)
		}
	}
}

// TestSetKernelResolvesAuto checks the kernel the package picks for this
// CPU at init: gfni exactly when GFNI is usable, fused otherwise.
func TestSetKernelResolvesAuto(t *testing.T) {
	if got := ActiveKernel() == KernelGFNI; got != HasGFNI() {
		t.Fatalf("ActiveKernel = %v with HasGFNI = %v", ActiveKernel(), HasGFNI())
	}
	if !HasGFNI() && ActiveKernel() != KernelFused {
		t.Fatalf("ActiveKernel = %v without GFNI, want fused", ActiveKernel())
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

// TestMulSliceDifferential checks every single-source multiply tier
// against the scalar reference for random coefficients over every tail
// length, including operating on unaligned sub-slices.
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
			mulSliceScalar(c, src, want)
			for _, tier := range mulSliceTiers() {
				got := make([]byte, n)
				tier.fn(c, src, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s MulSlice(c=%d, n=%d, off=%d) != scalar", tier.name, c, n, off)
				}
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
			mulAddSliceScalar(c, src, want)
			for _, tier := range mulAddSliceTiers() {
				got := append([]byte(nil), base...)
				tier.fn(c, src, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s MulAddSlice(c=%d, n=%d, off=%d) != scalar", tier.name, c, n, off)
				}
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
		addSliceRef(src, want)
		addSliceVector(src, got)
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
			mulSliceScalar(c, want, want)
			for _, tier := range mulSliceTiers() {
				got := append([]byte(nil), orig...)
				tier.fn(c, got, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s aliased MulSlice(c=%d, n=%d) mismatch", tier.name, c, n)
				}
			}

			want2 := append([]byte(nil), orig...)
			mulAddSliceScalar(c, want2, want2)
			for _, tier := range mulAddSliceTiers() {
				got2 := append([]byte(nil), orig...)
				tier.fn(c, got2, got2)
				if !bytes.Equal(got2, want2) {
					t.Fatalf("%s aliased MulAddSlice(c=%d, n=%d) mismatch", tier.name, c, n)
				}
			}
		}
	}
	// Aliased AddSlice must zero the slice (x ^ x = 0).
	buf := make([]byte, 1000)
	rng.Read(buf)
	addSliceVector(buf, buf)
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
		mulSliceScalar(byte(c), src, want)
		for _, tier := range mulSliceTiers() {
			tier.fn(byte(c), src, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s coefficient %d != scalar", tier.name, c)
			}
		}
	}
}

// BenchmarkKernels measures the single-source ops on each tier, the
// scalar reference included.
func BenchmarkKernels(b *testing.B) {
	src := make([]byte, 64*1024)
	dst := make([]byte, 64*1024)
	rand.New(rand.NewSource(3)).Read(src)
	run := func(name string, fn func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
	for _, op := range []struct {
		name  string
		tiers []sliceTier
	}{
		{"MulSlice", append([]sliceTier{{"scalar", mulSliceScalar}}, mulSliceTiers()...)},
		{"MulAddSlice", append([]sliceTier{{"scalar", mulAddSliceScalar}}, mulAddSliceTiers()...)},
	} {
		for _, tier := range op.tiers {
			if tier.name == "gfni" && !HasGFNI() {
				continue
			}
			run(fmt.Sprintf("%s/%s", op.name, tier.name), func() { tier.fn(0x57, src, dst) })
		}
	}
	run("AddSlice/scalar", func() { addSliceRef(src, dst) })
	run("AddSlice/vector", func() { addSliceVector(src, dst) })
}
