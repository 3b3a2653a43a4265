// Package matrix implements dense matrices over GF(2^8) and the generator
// matrix constructions used by Reed-Solomon coding.
//
// The reproduced paper (§II-C, Fig 3b) describes the construction precisely:
// an extended (k+m)×k Vandermonde matrix — whose first and last rows equal
// the corresponding rows of the identity — is reduced by elementary column
// operations into a systematic generator matrix whose top k rows form the
// k×k identity and whose remaining m rows form the coding matrix (first
// coding row all ones). This package implements that construction plus the
// inversion needed to build the decoding ("recover") matrix.
package matrix

import (
	"errors"
	"fmt"
	"strings"

	"ecarray/internal/gf"
)

// ErrSingular is returned when a matrix that must be invertible is not.
var ErrSingular = errors.New("matrix: singular matrix")

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	rows, cols int
	data       []byte
}

// New returns a zero rows×cols matrix. It panics on non-positive dimensions.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// ExtendedVandermonde returns the (rows×cols) extended Vandermonde matrix:
// element (i,j) = i^j, so each row is a geometric sequence beginning with 1
// as in the paper, except that the first row is e_0 and the last row is
// e_{cols-1}, matching the k×k identity's first and last rows (§II-C).
// Any cols×cols submatrix of it is invertible for rows ≤ 256.
func ExtendedVandermonde(rows, cols int) *Matrix {
	if rows <= cols {
		panic("matrix: extended Vandermonde needs rows > cols")
	}
	m := New(rows, cols)
	m.Set(0, 0, 1)
	for i := 1; i < rows-1; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, gf.Pow(byte(i), j))
		}
	}
	m.Set(rows-1, cols-1, 1)
	return m
}

// At returns element (r,c).
func (m *Matrix) At(r, c int) byte { return m.data[r*m.cols+c] }

// Set assigns element (r,c).
func (m *Matrix) Set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []byte { return m.data[r*m.cols : (r+1)*m.cols] }

// Mul returns m×o. It panics if the shapes are incompatible.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("matrix: cannot multiply %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	p := New(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.Row(i)
		prow := p.Row(i)
		for kk := 0; kk < m.cols; kk++ {
			a := mrow[kk]
			if a == 0 {
				continue
			}
			tbl := gf.MulTable(a)
			orow := o.Row(kk)
			for j := 0; j < o.cols; j++ {
				prow[j] ^= tbl[orow[j]]
			}
		}
	}
	return p
}

// SubMatrix returns the matrix formed by the given rows (in order).
func (m *Matrix) SubMatrix(rows []int) *Matrix {
	if len(rows) == 0 {
		panic("matrix: SubMatrix with no rows")
	}
	s := New(len(rows), m.cols)
	for i, r := range rows {
		copy(s.Row(i), m.Row(r))
	}
	return s
}

// Augment returns [m | o] with o appended column-wise.
func (m *Matrix) Augment(o *Matrix) *Matrix {
	if m.rows != o.rows {
		panic("matrix: Augment row mismatch")
	}
	a := New(m.rows, m.cols+o.cols)
	for i := 0; i < m.rows; i++ {
		copy(a.Row(i)[:m.cols], m.Row(i))
		copy(a.Row(i)[m.cols:], o.Row(i))
	}
	return a
}

// Invert returns m⁻¹ using Gauss-Jordan elimination with partial pivoting
// (row swaps). It returns ErrSingular if m is not invertible and panics if
// m is not square.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		panic("matrix: Invert on non-square matrix")
	}
	n := m.rows
	w := m.Augment(Identity(n))
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if w.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			pr, cr := w.Row(pivot), w.Row(col)
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
		}
		// Scale the pivot row so the pivot becomes 1.
		if pv := w.At(col, col); pv != 1 {
			inv := gf.Inv(pv)
			gf.MulSlice(inv, w.Row(col), w.Row(col))
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := w.At(r, col); f != 0 {
				gf.MulAddSlice(f, w.Row(col), w.Row(r))
			}
		}
	}
	out := New(n, n)
	for i := 0; i < n; i++ {
		copy(out.Row(i), w.Row(i)[n:])
	}
	return out, nil
}

// Generator returns the (k+m)×k systematic RS generator matrix built per the
// paper's §II-C: the extended Vandermonde matrix is transformed by elementary
// column operations until its top k rows are the identity; the bottom m rows
// become the coding matrix. The first coding row comes out all ones.
func Generator(k, m int) *Matrix {
	if k <= 0 || m <= 0 || k+m > gf.Order {
		panic(fmt.Sprintf("matrix: invalid RS parameters k=%d m=%d", k, m))
	}
	g := ExtendedVandermonde(k+m, k)
	// Column-reduce so rows 0..k-1 form the identity. Because every k×k
	// submatrix of the extended Vandermonde matrix is invertible, the top
	// block V_top is invertible, and G = V × V_top⁻¹ has identity on top.
	top := g.SubMatrix(seq(0, k))
	topInv, err := top.Invert()
	if err != nil {
		// Cannot happen for a valid extended Vandermonde construction.
		panic("matrix: extended Vandermonde top block singular: " + err.Error())
	}
	out := g.Mul(topInv)
	// Normalize so the first coding row is all ones (paper Fig 3b): scale
	// column j of the coding rows by the inverse of out[k][j]. Column scaling
	// combined with the implicit rescaling of the (untouched) identity rows
	// multiplies every k×k submatrix determinant by a nonzero constant, so
	// the MDS property is preserved. out[k][j] cannot be zero: the submatrix
	// of rows {0..k-1}\{j} ∪ {k} has determinant ±out[k][j], and MDS
	// guarantees it is invertible.
	for j := 0; j < k; j++ {
		c := out.At(k, j)
		if c == 1 {
			continue
		}
		inv := gf.Inv(c)
		for i := k; i < k+m; i++ {
			out.Set(i, j, gf.Mul(out.At(i, j), inv))
		}
	}
	return out
}

// seq returns [lo, hi) as a slice of ints.
func seq(lo, hi int) []int {
	s := make([]int, hi-lo)
	for i := range s {
		s[i] = lo + i
	}
	return s
}

// String formats the matrix in rows of space-separated hex bytes.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%02x", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
