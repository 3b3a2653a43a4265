package matrix

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ecarray/internal/gf"
)

// fromRows builds a matrix from equal-length, non-empty row slices.
func fromRows(rows [][]byte) *Matrix {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func equal(a, b *Matrix) bool {
	return a.rows == b.rows && a.cols == b.cols && bytes.Equal(a.data, b.data)
}

func isIdentity(m *Matrix) bool { return m.rows == m.cols && equal(m, Identity(m.rows)) }

func randomInvertible(rng *rand.Rand, n int) *Matrix {
	for {
		m := New(n, n)
		rng.Read(m.data)
		if _, err := m.Invert(); err == nil {
			return m
		}
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	if !isIdentity(id) {
		t.Fatal("Identity(4) is not the identity")
	}
	m := fromRows([][]byte{{1, 2}, {3, 4}})
	if !equal(m.Mul(Identity(2)), m) {
		t.Fatal("m × I != m")
	}
	if !equal(Identity(2).Mul(m), m) {
		t.Fatal("I × m != m")
	}
}

func TestMulShapes(t *testing.T) {
	a := New(2, 3)
	b := New(3, 4)
	p := a.Mul(b)
	if p.rows != 2 || p.cols != 4 {
		t.Fatalf("product shape %dx%d, want 2x4", p.rows, p.cols)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("incompatible Mul must panic")
		}
	}()
	b.Mul(a.SubMatrix([]int{0})) // 3x4 × 1x3: invalid
}

func TestMulKnown(t *testing.T) {
	// [[1,2],[3,4]] × [[5],[6]] over GF(256):
	// row0 = 1*5 ^ 2*6 = 5 ^ 12 = 9; row1 = 3*5 ^ 4*6 = 15 ^ 24 = 23.
	a := fromRows([][]byte{{1, 2}, {3, 4}})
	b := fromRows([][]byte{{5}, {6}})
	p := a.Mul(b)
	if p.At(0, 0) != gf.Mul(1, 5)^gf.Mul(2, 6) || p.At(1, 0) != gf.Mul(3, 5)^gf.Mul(4, 6) {
		t.Fatalf("Mul known-value mismatch: got %v", p.data)
	}
}

func TestInvertIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 8; n++ {
		m := randomInvertible(rng, n)
		inv, err := m.Invert()
		if err != nil {
			t.Fatal(err)
		}
		if !isIdentity(m.Mul(inv)) {
			t.Fatalf("m × m⁻¹ != I for n=%d", n)
		}
		if !isIdentity(inv.Mul(m)) {
			t.Fatalf("m⁻¹ × m != I for n=%d", n)
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := fromRows([][]byte{{1, 2}, {2, 4}}) // row1 = 2 × row0 in GF(256)
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("Invert of singular matrix: err = %v, want ErrSingular", err)
	}
	z := New(3, 3)
	if _, err := z.Invert(); err != ErrSingular {
		t.Fatalf("Invert of zero matrix: err = %v, want ErrSingular", err)
	}
}

func TestInvertNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Invert of non-square must panic")
		}
	}()
	New(2, 3).Invert() //nolint:errcheck
}

// TestVandermondeForm: between its identity edges, every row i of the
// extended Vandermonde matrix is the geometric sequence i^j (paper §II-C).
func TestVandermondeForm(t *testing.T) {
	ev := ExtendedVandermonde(9, 6)
	for i := 1; i < 8; i++ {
		for j := 0; j < 6; j++ {
			if ev.At(i, j) != gf.Pow(byte(i), j) {
				t.Fatalf("ev[%d][%d] != %d^%d", i, j, i, j)
			}
		}
	}
}

func TestExtendedVandermondeEdges(t *testing.T) {
	ev := ExtendedVandermonde(9, 6)
	// First row must be the identity's first row, last row its last row.
	for j := 0; j < 6; j++ {
		wantFirst, wantLast := byte(0), byte(0)
		if j == 0 {
			wantFirst = 1
		}
		if j == 5 {
			wantLast = 1
		}
		if ev.At(0, j) != wantFirst {
			t.Fatalf("extended Vandermonde first row wrong at col %d", j)
		}
		if ev.At(8, j) != wantLast {
			t.Fatalf("extended Vandermonde last row wrong at col %d", j)
		}
	}
}

func TestGeneratorSystematic(t *testing.T) {
	for _, km := range [][2]int{{6, 3}, {10, 4}, {4, 2}, {2, 1}, {3, 5}} {
		k, m := km[0], km[1]
		g := Generator(k, m)
		if g.rows != k+m || g.cols != k {
			t.Fatalf("Generator(%d,%d) shape %dx%d", k, m, g.rows, g.cols)
		}
		if !isIdentity(g.SubMatrix(seq(0, k))) {
			t.Fatalf("Generator(%d,%d) top block is not identity", k, m)
		}
	}
}

func TestGeneratorFirstCodingRowAllOnes(t *testing.T) {
	// Paper §II-C: the coding matrix's first row is all ones (so the first
	// parity chunk is the XOR of the data chunks).
	for _, km := range [][2]int{{6, 3}, {10, 4}} {
		g := Generator(km[0], km[1])
		for j := 0; j < km[0]; j++ {
			if g.At(km[0], j) != 1 {
				t.Fatalf("Generator(%d,%d) first coding row element %d = %d, want 1",
					km[0], km[1], j, g.At(km[0], j))
			}
		}
	}
}

func TestGeneratorMDS(t *testing.T) {
	// MDS property: every k×k submatrix of the generator must be invertible,
	// i.e. any k surviving chunks can reconstruct the data. Exhaustive over
	// all C(k+m,k) row subsets for the two paper configurations.
	for _, km := range [][2]int{{6, 3}, {10, 4}} {
		k, m := km[0], km[1]
		g := Generator(k, m)
		rows := make([]int, k)
		var rec func(start, depth int)
		count := 0
		rec = func(start, depth int) {
			if depth == k {
				sub := g.SubMatrix(rows)
				if _, err := sub.Invert(); err != nil {
					t.Fatalf("Generator(%d,%d): submatrix %v singular", k, m, rows)
				}
				count++
				return
			}
			for r := start; r <= k+m-(k-depth); r++ {
				rows[depth] = r
				rec(r+1, depth+1)
			}
		}
		rec(0, 0)
		if count == 0 {
			t.Fatal("no submatrices enumerated")
		}
	}
}

func TestGeneratorInvalidPanics(t *testing.T) {
	for _, km := range [][2]int{{0, 3}, {6, 0}, {200, 100}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Generator(%d,%d) must panic", km[0], km[1])
				}
			}()
			Generator(km[0], km[1])
		}()
	}
}

func TestSubMatrixAndAugment(t *testing.T) {
	m := fromRows([][]byte{{1, 2}, {3, 4}, {5, 6}})
	s := m.SubMatrix([]int{2, 0})
	if s.At(0, 0) != 5 || s.At(1, 1) != 2 {
		t.Fatal("SubMatrix row selection wrong")
	}
	a := m.SubMatrix([]int{0, 1}).Augment(Identity(2))
	if a.cols != 4 || a.At(0, 2) != 1 || a.At(1, 3) != 1 {
		t.Fatal("Augment layout wrong")
	}
}

func TestInverseRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		m := randomInvertible(rng, n)
		inv, err := m.Invert()
		if err != nil {
			return false
		}
		return isIdentity(m.Mul(inv))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	m := fromRows([][]byte{{0, 255}})
	if got, want := m.String(), "00 ff\n"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func BenchmarkInvert10(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	m := randomInvertible(rng, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Invert(); err != nil {
			b.Fatal(err)
		}
	}
}
