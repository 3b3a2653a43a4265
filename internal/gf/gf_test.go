package gf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAddIsXor: field addition is XOR, so it is its own inverse; AddSlice
// applied twice restores dst.
func TestAddIsXor(t *testing.T) {
	src, dst := []byte{0x57}, []byte{0x83}
	AddSlice(src, dst)
	if dst[0] != 0x57^0x83 {
		t.Fatalf("0x57 + 0x83 = %#x, want %#x", dst[0], 0x57^0x83)
	}
	AddSlice(src, dst)
	if dst[0] != 0x83 {
		t.Fatalf("adding 0x57 twice left %#x, want 0x83", dst[0])
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	for a := 0; a < 256; a++ {
		b := byte(a)
		if Mul(b, 1) != b {
			t.Fatalf("Mul(%d,1) = %d, want %d", b, Mul(b, 1), b)
		}
		if Mul(1, b) != b {
			t.Fatalf("Mul(1,%d) = %d, want %d", b, Mul(1, b), b)
		}
		if Mul(b, 0) != 0 || Mul(0, b) != 0 {
			t.Fatalf("Mul with zero must be zero (a=%d)", b)
		}
	}
}

func TestMulKnownVectors(t *testing.T) {
	// Spot values for the 0x11d field, cross-checked against Jerasure/ISA-L.
	cases := []struct{ a, b, want byte }{
		{2, 2, 4},
		{2, 128, 29}, // wraps the polynomial: 0x100 ^ 0x11d = 0x1d
		{0x80, 0x80, 0x13},
		{0xff, 0xff, 0xe2},
		{3, 7, 9},
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x,%#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(a, b^c) == Mul(a, b)^Mul(a, c) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		b := byte(a)
		if Mul(b, Inv(b)) != 1 {
			t.Fatalf("Mul(%d, Inv(%d)) != 1", b, b)
		}
	}
}

// TestDivInvertsMul: dividing by b is multiplying by Inv(b), and it undoes
// multiplication by b.
func TestDivInvertsMul(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Mul(Mul(a, b), Inv(b)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) must panic")
		}
	}()
	Inv(0)
}

func TestLogExpRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if expTbl[logTbl[a]] != byte(a) {
			t.Fatalf("expTbl[logTbl[%d]] != %d", a, a)
		}
	}
}

func TestExpNegative(t *testing.T) {
	if Pow(2, -1) != Inv(2) {
		t.Fatalf("Pow(2, -1) = %d, want Inv(2) = %d", Pow(2, -1), Inv(2))
	}
	if Pow(2, 255) != Pow(2, 0) {
		t.Fatalf("Pow(2, n) period must be 255")
	}
}

func TestPow(t *testing.T) {
	for a := 0; a < 256; a++ {
		want := byte(1)
		for n := 0; n < 10; n++ {
			if got := Pow(byte(a), n); got != want {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, n, got, want)
			}
			want = Mul(want, byte(a))
		}
	}
	if Pow(0, 0) != 1 {
		t.Fatal("Pow(0,0) must be 1 by convention")
	}
}

func TestGeneratorOrder(t *testing.T) {
	// The generator 2 must have multiplicative order 255 (primitive element).
	x := byte(1)
	for i := 1; i < 255; i++ {
		x = Mul(x, 2)
		if x == 1 {
			t.Fatalf("generator order %d, want 255", i)
		}
	}
	if Mul(x, 2) != 1 {
		t.Fatal("generator^255 must be 1")
	}
}

func TestMulSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 1024)
	rng.Read(src)
	dst := make([]byte, len(src))
	want := make([]byte, len(src))
	for _, c := range []byte{0, 1, 2, 37, 255} {
		MulSlice(c, src, dst)
		for i := range src {
			want[i] = Mul(c, src[i])
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("MulSlice(c=%d) mismatch", c)
		}
	}
}

func TestMulAddSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 1024)
	base := make([]byte, 1024)
	rng.Read(src)
	rng.Read(base)
	dst := make([]byte, len(src))
	want := make([]byte, len(src))
	for _, c := range []byte{0, 1, 2, 37, 255} {
		copy(dst, base)
		copy(want, base)
		MulAddSlice(c, src, dst)
		for i := range src {
			want[i] ^= Mul(c, src[i])
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("MulAddSlice(c=%d) mismatch", c)
		}
	}
}

func TestAddSlice(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	dst := []byte{4, 3, 2, 1}
	AddSlice(src, dst)
	want := []byte{5, 1, 1, 5}
	if !bytes.Equal(dst, want) {
		t.Fatalf("AddSlice = %v, want %v", dst, want)
	}
}

func TestSliceLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"MulSlice":    func() { MulSlice(2, make([]byte, 3), make([]byte, 4)) },
		"MulAddSlice": func() { MulAddSlice(2, make([]byte, 3), make([]byte, 4)) },
		"AddSlice":    func() { AddSlice(make([]byte, 3), make([]byte, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched lengths must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMulTable(t *testing.T) {
	tbl := MulTable(7)
	for b := 0; b < 256; b++ {
		if tbl[b] != Mul(7, byte(b)) {
			t.Fatalf("MulTable(7)[%d] mismatch", b)
		}
	}
}

func BenchmarkMulAddSlice(b *testing.B) {
	src := make([]byte, 64*1024)
	dst := make([]byte, 64*1024)
	rand.New(rand.NewSource(3)).Read(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(0x57, src, dst)
	}
}

func BenchmarkMulScalar(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= Mul(byte(i), byte(i>>8))
	}
	_ = acc
}
