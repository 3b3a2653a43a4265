// Package gf implements arithmetic over the finite field GF(2^8).
//
// Reed-Solomon coding as described in the reproduced paper (§II-C) computes
// coding chunks by matrix-vector multiplication where every element operation
// is carried out in a Galois field. This package provides the scalar field
// operations and the bulk (slice) operations the codec hot path uses.
//
// The field is GF(2^8) with the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d), the conventional choice for storage RS codes (Jerasure, ISA-L).
// Multiplication uses log/exp tables built at package init.
//
// # Kernel tiers
//
// The bulk operations run one of two tiers (see [Kernel]), both
// byte-identical to the per-byte product-table loop the tests hold them
// against:
//
//   - fused — single-source ops ([MulSlice], [MulAddSlice]) run split
//     low/high-nibble tables through an AVX2 PSHUFB shuffle; single-row
//     products ([MulSources]) run that kernel source by source over
//     L1-resident blocks, so dst is re-read from cache, not memory, between
//     sources; row batches ([MulMatrixRange], the encode path) run a 4-row assembly
//     kernel that loads and nibble-splits every source block once for all
//     four rows, keeps the row accumulators in registers, and writes each
//     output exactly once.
//   - gfni — the fused data path on GFNI/AVX-512: GF2P8AFFINEQB multiplies
//     64 bytes per instruction using per-coefficient 8×8 bit-matrix tables
//     (see gfniMat).
//
// # Detection
//
// The CPU picks the tier once, when the package initialises
// ([ActiveKernel]): gfni when CPUID reports GFNI + AVX512F/BW/VL and the
// OS saves full ZMM state, fused otherwise. There is no runtime switch.
// Setting the environment variable ECARRAY_NO_GFNI (to any non-empty
// value) masks GFNI detection, which CI uses to run the AVX2 fused path on
// GFNI hardware. Building with the purego tag (or on non-amd64) removes
// all assembly; both tiers then run the portable blocked loop.
package gf

// Polynomial is the primitive polynomial used to construct the field,
// x^8 + x^4 + x^3 + x^2 + 1.
const Polynomial = 0x11d

// Order is the number of elements in the field.
const Order = 256

var (
	logTbl [Order]byte        // logTbl[x] = log_g(x); logTbl[0] unused
	expTbl [2 * Order]byte    // expTbl[i] = g^i, doubled to skip a mod in Mul
	invTbl [Order]byte        // invTbl[x] = x^-1; invTbl[0] unused
	mulTbl [Order][Order]byte // mulTbl[a][b] = a*b
)

func init() {
	x := 1
	for i := 0; i < Order-1; i++ {
		expTbl[i] = byte(x)
		logTbl[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Polynomial
		}
	}
	for i := Order - 1; i < 2*Order; i++ {
		expTbl[i] = expTbl[i-(Order-1)]
	}
	for a := 1; a < Order; a++ {
		invTbl[a] = expTbl[Order-1-int(logTbl[a])]
	}
	for a := 0; a < Order; a++ {
		for b := 0; b < Order; b++ {
			mulTbl[a][b] = mulSlow(byte(a), byte(b))
		}
	}
	initKernelTables()
}

func mulSlow(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTbl[int(logTbl[a])+int(logTbl[b])]
}

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte { return mulTbl[a][b] }

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf: zero has no inverse")
	}
	return invTbl[a]
}

// Pow returns a^n in GF(2^8). a^0 == 1 for any a, including 0 by convention.
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	l := int(logTbl[a]) * n % (Order - 1)
	if l < 0 {
		l += Order - 1
	}
	return expTbl[l]
}

// MulSlice sets dst[i] = c*src[i] for every i. dst and src must have the
// same length; they may be the same slice (exact aliasing), but must not
// partially overlap.
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf: MulSlice length mismatch")
	}
	switch c {
	case 0:
		clear(dst)
		return
	case 1:
		copy(dst, src)
		return
	}
	mulSliceGFNI(c, src, dst)
}

// MulAddSlice sets dst[i] ^= c*src[i] for every i: the multiply-accumulate
// kernel of RS encoding. dst and src must have the same length; they must
// not partially overlap.
func MulAddSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf: MulAddSlice length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		AddSlice(src, dst)
		return
	}
	mulAddSliceGFNI(c, src, dst)
}

// AddSlice sets dst[i] ^= src[i] for every i.
func AddSlice(src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf: AddSlice length mismatch")
	}
	addSliceVector(src, dst)
}

// MulSources computes the fused row product dst[i] = Σ_s coeffs[s] ×
// srcs[s][i] — the whole parity-row computation of RS encoding in one
// call. Zero coefficients skip their source. len(coeffs) must equal
// len(srcs) and every source must be at least len(dst) long. dst must not
// overlap any source (sources may alias each other freely; they are only
// read).
func MulSources(coeffs []byte, srcs [][]byte, dst []byte) {
	MulSourcesRange(coeffs, srcs, 0, dst, false)
}

// MulSourcesRange is the windowed form of MulSources the span-sharded
// codec uses: dst[i] (^)= Σ_s coeffs[s] × srcs[s][off+i] for i in
// [0, len(dst)). With accumulate set, products XOR into dst's prior
// content; otherwise dst is fully overwritten (and zeroed when every
// coefficient is zero). dst must not overlap any srcs[s][off:off+len(dst)]
// window.
func MulSourcesRange(coeffs []byte, srcs [][]byte, off int, dst []byte, accumulate bool) {
	if len(coeffs) != len(srcs) {
		panic("gf: MulSources coefficient/source count mismatch")
	}
	for _, s := range srcs {
		if len(s) < off+len(dst) {
			panic("gf: MulSources source shorter than dst window")
		}
	}
	if len(dst) == 0 {
		return
	}
	mulSourcesGFNI(coeffs, srcs, off, dst, accumulate)
}

// MulMatrixRange computes a batch of fused row products over the window
// [off, off+n) of every source and destination: for every row r,
// dsts[r][off+i] (^)= Σ_s coeffs[r][s] × srcs[s][off+i], where the
// coefficient rows live in mt (see NewMatrixTables). With accumulate set,
// products XOR into the existing dst window content. Batching rows is the
// widest fusion the encode path has: the fused tier loads and
// nibble-splits every source byte once for four output rows at a time, so
// an RS(k,4) stripe reads its data shards once instead of once per parity
// row. dsts must not overlap srcs or each other.
func MulMatrixRange(mt *MatrixTables, srcs, dsts [][]byte, off, n int, accumulate bool) {
	if len(srcs) != mt.k {
		panic("gf: MulMatrix source count mismatch")
	}
	if len(dsts) != len(mt.rows) {
		panic("gf: MulMatrix row count mismatch")
	}
	for _, s := range srcs {
		if len(s) < off+n {
			panic("gf: MulMatrix source shorter than window")
		}
	}
	for _, d := range dsts {
		if len(d) < off+n {
			panic("gf: MulMatrix dst shorter than window")
		}
	}
	if n == 0 {
		return
	}
	mulMatrixGFNI(mt, srcs, dsts, off, n, accumulate)
}

// MulTable returns the 256-entry product table for coefficient c. Callers
// that apply the same coefficient to many buffers can hoist the lookup.
func MulTable(c byte) *[256]byte { return &mulTbl[c] }
