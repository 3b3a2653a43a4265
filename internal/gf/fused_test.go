package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// sourcesTier is one multi-source tier kernel, called directly; see
// sliceTier. unfused is the per-source path both fused tiers use for
// blocks and tails.
type sourcesTier struct {
	name string
	fn   func(coeffs []byte, srcs [][]byte, off int, dst []byte, accumulate bool)
}

func sourcesTiers() []sourcesTier {
	return []sourcesTier{
		{"unfused", mulSourcesUnfused},
		{"fused", mulSourcesFused},
		{"gfni", mulSourcesGFNI},
	}
}

// matrixTier is one row-batch tier kernel, called directly.
type matrixTier struct {
	name string
	fn   func(mt *MatrixTables, srcs, dsts [][]byte, off, n int, accumulate bool)
}

func matrixTiers() []matrixTier {
	return []matrixTier{{"fused", mulMatrixFused}, {"gfni", mulMatrixGFNI}}
}

// refMulSources computes the row product with plain table arithmetic,
// independent of every kernel under test.
func refMulSources(coeffs []byte, srcs [][]byte, off int, dst []byte, accumulate bool) {
	if !accumulate {
		clear(dst)
	}
	for s, c := range coeffs {
		if c == 0 {
			continue
		}
		tbl := MulTable(c)
		for i := range dst {
			dst[i] ^= tbl[srcs[s][off+i]]
		}
	}
}

// TestGFNIMatrixTable verifies the packed 8×8 bit matrices against the
// product table byte for byte: applying gfniMat[c] in software must equal
// Mul(c, x) for every c and x. This validates the GF2P8AFFINEQB operand
// convention (row for output bit i in byte 7-i) on every platform, even
// where the instruction itself is unavailable.
func TestGFNIMatrixTable(t *testing.T) {
	affine := func(mat uint64, x byte) byte {
		var out byte
		for i := 0; i < 8; i++ {
			row := byte(mat >> (8 * (7 - i)))
			p := row & x
			// parity of p
			p ^= p >> 4
			p ^= p >> 2
			p ^= p >> 1
			out |= (p & 1) << i
		}
		return out
	}
	for c := 0; c < Order; c++ {
		for x := 0; x < Order; x++ {
			if got, want := affine(gfniMat[c], byte(x)), Mul(byte(c), byte(x)); got != want {
				t.Fatalf("gfniMat[%d] applied to %d = %d, want %d", c, x, got, want)
			}
		}
	}
}

// fusedLengths exercises the 64-byte fused block size, the 32-byte AVX2
// block handling the tail, and byte tails on both sides.
func fusedLengths() []int {
	lens := []int{0, 1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 95, 127, 128, 129,
		191, 192, 193, 255, 256, 257, 4096, 4096 + 17, 64 << 10, 64<<10 + 33}
	return lens
}

// TestMulSourcesDifferential checks every tier's row product against the
// plain-table reference across source counts, window offsets, lengths,
// accumulate modes, and coefficient patterns including zeros and ones.
func TestMulSourcesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, nsrc := range []int{1, 2, 3, 4, 6, 10, 12} {
		for _, n := range fusedLengths() {
			for _, off := range []int{0, 1, 5, 64} {
				srcs := make([][]byte, nsrc)
				for s := range srcs {
					srcs[s] = make([]byte, off+n)
					rng.Read(srcs[s])
				}
				for _, accumulate := range []bool{false, true} {
					coeffs := make([]byte, nsrc)
					rng.Read(coeffs)
					// Force interesting coefficient values into the mix.
					if nsrc > 1 {
						coeffs[0] = 0
						coeffs[1] = 1
					}
					base := make([]byte, n)
					rng.Read(base)

					want := append([]byte(nil), base...)
					refMulSources(coeffs, srcs, off, want, accumulate)

					for _, tier := range sourcesTiers() {
						got := append([]byte(nil), base...)
						tier.fn(coeffs, srcs, off, got, accumulate)
						if !bytes.Equal(got, want) {
							t.Fatalf("%s: MulSourcesRange(nsrc=%d n=%d off=%d acc=%v) != reference",
								tier.name, nsrc, n, off, accumulate)
						}
					}
				}
			}
		}
	}
}

// TestMulSourcesAllZeroCoeffs: with no contributing source the row
// product must zero dst (or leave it untouched when accumulating).
func TestMulSourcesAllZeroCoeffs(t *testing.T) {
	srcs := [][]byte{make([]byte, 256), make([]byte, 256)}
	rand.New(rand.NewSource(3)).Read(srcs[0])
	rand.New(rand.NewSource(4)).Read(srcs[1])
	for _, tier := range sourcesTiers() {
		dst := bytes.Repeat([]byte{0xaa}, 256)
		tier.fn([]byte{0, 0}, srcs, 0, dst, false)
		for i, b := range dst {
			if b != 0 {
				t.Fatalf("%s: all-zero coeffs left dst[%d] = %d", tier.name, i, b)
			}
		}
		dst = bytes.Repeat([]byte{0xaa}, 256)
		tier.fn([]byte{0, 0}, srcs, 0, dst, true)
		for i, b := range dst {
			if b != 0xaa {
				t.Fatalf("%s: accumulate with zero coeffs changed dst[%d]", tier.name, i)
			}
		}
	}
}

// TestMulSourcesAliasedSources: the same buffer may appear as several
// sources (sources are read-only). c1*x ^ c2*x must equal (c1^c2)*x.
func TestMulSourcesAliasedSources(t *testing.T) {
	shared := make([]byte, 64<<10+17)
	rand.New(rand.NewSource(5)).Read(shared)
	coeffs := []byte{0x57, 0x8e, 3}
	srcs := [][]byte{shared, shared, shared}
	want := make([]byte, len(shared))
	refMulSources(coeffs, srcs, 0, want, false)
	for _, tier := range sourcesTiers() {
		got := make([]byte, len(shared))
		tier.fn(coeffs, srcs, 0, got, false)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: aliased sources mismatch", tier.name)
		}
	}
}

// TestMulSourcesValidation checks the panics that guard the asm kernels'
// preconditions.
func TestMulSourcesValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		fn()
	}
	mustPanic("count mismatch", func() {
		MulSources([]byte{1, 2}, [][]byte{make([]byte, 8)}, make([]byte, 8))
	})
	mustPanic("short source", func() {
		MulSourcesRange([]byte{1}, [][]byte{make([]byte, 8)}, 4, make([]byte, 8), false)
	})
}

// TestMulSliceGFNITier runs the single-source ops through the exported
// entry points, which run the gfni tier, over the full differential length
// set (on non-GFNI machines this exercises the fallback, which must be
// identical anyway).
func TestMulSliceGFNITier(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range differentialLengths() {
		c := byte(1 + rng.Intn(255))
		src := make([]byte, n)
		rng.Read(src)
		want := make([]byte, n)
		got := make([]byte, n)
		mulSliceScalar(c, src, want)
		MulSlice(c, src, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("gfni MulSlice(c=%d, n=%d) != scalar", c, n)
		}
		base := make([]byte, n)
		rng.Read(base)
		want2 := append([]byte(nil), base...)
		got2 := append([]byte(nil), base...)
		mulAddSliceScalar(c, src, want2)
		MulAddSlice(c, src, got2)
		if !bytes.Equal(got2, want2) {
			t.Fatalf("gfni MulAddSlice(c=%d, n=%d) != scalar", c, n)
		}
	}
}

// TestMulSourcesEveryCoefficient sweeps all 256 coefficients through the
// tiers at an awkward length so every nibble-table row and every GFNI bit
// matrix is exercised by the actual kernels.
func TestMulSourcesEveryCoefficient(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	src := make([]byte, 257)
	rng.Read(src)
	srcs := [][]byte{src}
	want := make([]byte, len(src))
	for c := 0; c < 256; c++ {
		coeffs := []byte{byte(c)}
		refMulSources(coeffs, srcs, 0, want, false)
		for _, tier := range sourcesTiers() {
			got := make([]byte, len(src))
			tier.fn(coeffs, srcs, 0, got, false)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: coefficient %d mismatch", tier.name, c)
			}
		}
	}
}

// TestMulMatrixDifferential checks the row-batched kernel against the
// plain-table reference across row counts (1..6 covers partial groups,
// one full 4-row group, and group+remainder), source counts, window
// offsets, lengths, and accumulate modes, on every tier.
func TestMulMatrixDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, nrows := range []int{1, 2, 3, 4, 5, 6} {
		for _, nsrc := range []int{1, 3, 10} {
			rows := make([][]byte, nrows)
			for r := range rows {
				rows[r] = make([]byte, nsrc)
				rng.Read(rows[r])
			}
			rows[0][0] = 0 // exercise zero and one coefficients through the tables
			if nsrc > 1 {
				rows[nrows-1][1] = 1
			}
			mt := NewMatrixTables(rows)
			for _, n := range []int{0, 1, 31, 32, 33, 63, 64, 65, 127, 129, 4096 + 17} {
				for _, off := range []int{0, 3, 32} {
					srcs := make([][]byte, nsrc)
					for s := range srcs {
						srcs[s] = make([]byte, off+n)
						rng.Read(srcs[s])
					}
					for _, accumulate := range []bool{false, true} {
						base := make([][]byte, nrows)
						want := make([][]byte, nrows)
						for r := range base {
							base[r] = make([]byte, off+n)
							rng.Read(base[r])
							want[r] = append([]byte(nil), base[r]...)
							refMulSources(rows[r], srcs, off, want[r][off:off+n], accumulate)
						}
						for _, tier := range matrixTiers() {
							got := make([][]byte, nrows)
							for r := range got {
								got[r] = append([]byte(nil), base[r]...)
							}
							tier.fn(mt, srcs, got, off, n, accumulate)
							for r := range got {
								if !bytes.Equal(got[r], want[r]) {
									t.Fatalf("%s: MulMatrix(rows=%d nsrc=%d n=%d off=%d acc=%v) row %d != reference",
										tier.name, nrows, nsrc, n, off, accumulate, r)
								}
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkMulMatrix measures the row-batched encode kernel shape
// directly: 10 sources × 4 rows (RS(10,4)), 64 KiB shards.
func BenchmarkMulMatrix(b *testing.B) {
	const n = 64 << 10
	rng := rand.New(rand.NewSource(9))
	rows := make([][]byte, 4)
	for r := range rows {
		rows[r] = make([]byte, 10)
		rng.Read(rows[r])
	}
	mt := NewMatrixTables(rows)
	srcs := make([][]byte, 10)
	for s := range srcs {
		srcs[s] = make([]byte, n)
		rng.Read(srcs[s])
	}
	dsts := make([][]byte, 4)
	for r := range dsts {
		dsts[r] = make([]byte, n)
	}
	// unfused is one per-source pass per row: the baseline row batching
	// is measured against.
	unfused := func(mt *MatrixTables, srcs, dsts [][]byte, off, n int, accumulate bool) {
		for r := range dsts {
			mulSourcesUnfused(mt.rows[r], srcs, off, dsts[r][off:off+n], accumulate)
		}
	}
	for _, tier := range append([]matrixTier{{"unfused", unfused}}, matrixTiers()...) {
		if tier.name == "gfni" && !HasGFNI() {
			continue
		}
		b.Run(fmt.Sprintf("10x4/%s", tier.name), func(b *testing.B) {
			b.SetBytes(int64(n * 10))
			for i := 0; i < b.N; i++ {
				tier.fn(mt, srcs, dsts, 0, n, false)
			}
		})
	}
}

// BenchmarkMulSources compares the scalar reference and the per-source
// path against the fused tiers on a 10-source row product (RS(10,4)
// geometry, 64 KiB shards).
func BenchmarkMulSources(b *testing.B) {
	const n = 64 << 10
	const nsrc = 10
	srcs := make([][]byte, nsrc)
	rng := rand.New(rand.NewSource(7))
	coeffs := make([]byte, nsrc)
	rng.Read(coeffs)
	for s := range srcs {
		srcs[s] = make([]byte, n)
		rng.Read(srcs[s])
	}
	dst := make([]byte, n)
	for _, tier := range append([]sourcesTier{{"scalar", refMulSources}}, sourcesTiers()...) {
		if tier.name == "gfni" && !HasGFNI() {
			continue
		}
		b.Run(fmt.Sprintf("10src/%s", tier.name), func(b *testing.B) {
			b.SetBytes(int64(n * nsrc))
			for i := 0; i < b.N; i++ {
				tier.fn(coeffs, srcs, 0, dst, false)
			}
		})
	}
}
