package gf

import "encoding/binary"

// Kernel names the implementation tier behind the bulk slice operations
// (MulSlice, MulAddSlice, AddSlice, MulSources, MulMatrixRange). The CPU picks
// it once, when the package initialises; see ActiveKernel.
type Kernel uint32

const (
	// KernelFused is the multi-source fused tier: row batches run the
	// 4-row AVX2 matrix kernel on amd64 (sources loaded once for all
	// rows, accumulators in registers, each output written once);
	// single-row products run in L1-resident blocks. Portable blocked
	// loop under purego or off amd64.
	KernelFused Kernel = iota
	// KernelGFNI is the fused kernel using GFNI/AVX-512 (GF2P8AFFINEQB on
	// ZMM registers).
	KernelGFNI
)

// String names the kernel ("fused", "gfni").
func (k Kernel) String() string {
	switch k {
	case KernelFused:
		return "fused"
	case KernelGFNI:
		return "gfni"
	}
	return "unknown"
}

// ActiveKernel reports the kernel the bulk operations run: gfni when the
// CPU exposes GFNI+AVX-512 (and ECARRAY_NO_GFNI is unset), fused
// otherwise.
func ActiveKernel() Kernel {
	if hasGFNI {
		return KernelGFNI
	}
	return KernelFused
}

// Accelerated reports whether the vector tiers are backed by CPU SIMD
// (AVX2 on amd64) rather than the portable pure-Go word kernel.
func Accelerated() bool { return hasAVX2 }

// HasGFNI reports whether the GFNI/AVX-512 tier is hardware-backed on this
// machine (GFNI + AVX512F/BW/VL with full ZMM OS state, and not disabled
// via ECARRAY_NO_GFNI).
func HasGFNI() bool { return hasGFNI }

// Split-nibble product tables: for a coefficient c and a source byte
// s = hi<<4 | lo, c*s = nibLow[c][lo] ^ nibHigh[c][hi] by distributivity.
// Each coefficient needs only 2×16 entries, which is exactly the shape a
// 16-lane byte shuffle (PSHUFB) consumes; the portable kernels use the
// same tables so every platform exercises the same data path.
var (
	nibLow  [Order][16]byte // nibLow[c][n]  = c * n
	nibHigh [Order][16]byte // nibHigh[c][n] = c * (n<<4)
)

// gfniMat[c] is the 8×8 GF(2) bit matrix of the linear map x → c·x over
// GF(2^8)/0x11d, packed the way GF2P8AFFINEQB consumes it: the row
// producing output bit i sits in byte 7-i of the qword, and bit j of that
// row is bit i of c·2^j. Built for every platform so the table itself is
// testable without the instruction.
var gfniMat [Order]uint64

// initKernelTables derives the nibble and affine tables from mulTbl.
// Called from the package init in gf.go after the full product table is
// built.
func initKernelTables() {
	for c := 0; c < Order; c++ {
		for n := 0; n < 16; n++ {
			nibLow[c][n] = mulTbl[c][n]
			nibHigh[c][n] = mulTbl[c][n<<4]
		}
		var m uint64
		for i := 0; i < 8; i++ {
			var row byte
			for j := 0; j < 8; j++ {
				row |= ((mulTbl[c][1<<j] >> i) & 1) << j
			}
			m |= uint64(row) << (8 * (7 - i))
		}
		gfniMat[c] = m
	}
}

// --- scalar kernels (per-byte product table): the reference every tier is
// differentially tested against, and the body of the portable paths ---

func mulSliceScalar(c byte, src, dst []byte) {
	tbl := &mulTbl[c]
	for i, s := range src {
		dst[i] = tbl[s]
	}
}

func mulAddSliceScalar(c byte, src, dst []byte) {
	tbl := &mulTbl[c]
	for i, s := range src {
		dst[i] ^= tbl[s]
	}
}

// --- portable nibble-table kernels ---
//
// The portable multiply body keeps the hoisted product-table loop (on
// machines without SIMD a 256-entry L1-resident lookup is the fastest pure
// Go form) and handles short tails through the nibble tables so the
// split-table path is exercised on every platform.

func mulSliceNibbleTail(c byte, src, dst []byte) {
	lo, hi := &nibLow[c], &nibHigh[c]
	for i, s := range src {
		dst[i] = lo[s&0x0f] ^ hi[s>>4]
	}
}

func mulAddSliceNibbleTail(c byte, src, dst []byte) {
	lo, hi := &nibLow[c], &nibHigh[c]
	for i, s := range src {
		dst[i] ^= lo[s&0x0f] ^ hi[s>>4]
	}
}

func mulSlicePortable(c byte, src, dst []byte) {
	if len(src) < 16 {
		mulSliceNibbleTail(c, src, dst)
		return
	}
	mulSliceScalar(c, src, dst)
}

func mulAddSlicePortable(c byte, src, dst []byte) {
	if len(src) < 16 {
		mulAddSliceNibbleTail(c, src, dst)
		return
	}
	mulAddSliceScalar(c, src, dst)
}

// mulSourcesUnfused is the per-source data path (the body of each fused
// block and the tail handler of both tiers): one vector kernel call per
// source, re-reading dst between sources.
func mulSourcesUnfused(coeffs []byte, srcs [][]byte, off int, dst []byte, accumulate bool) {
	first := !accumulate
	for s, c := range coeffs {
		if c == 0 {
			continue
		}
		w := srcs[s][off : off+len(dst)]
		switch {
		case first:
			if c == 1 {
				copy(dst, w)
			} else {
				mulSliceVector(c, w, dst)
			}
			first = false
		case c == 1:
			addSliceVector(w, dst)
		default:
			mulAddSliceVector(c, w, dst)
		}
	}
	if first {
		clear(dst)
	}
}

// matrixGroup is the row-batch width of the fused matrix kernel: the
// amd64 assembly computes exactly this many output rows per pass, loading
// and nibble-splitting every source byte once for all of them.
const matrixGroup = 4

// MatrixTables is the kernel-ready form of a coefficient matrix — a batch
// of output rows over the same k sources, e.g. the m parity rows of an
// RS(k,m) generator. Precomputing it hoists the per-call table setup out
// of the encode hot path: the fused tier walks a flattened nibble-table
// buffer (32 bytes per row×source pair, source-major) with a single
// running pointer. Build once per matrix (internal/rs caches one per
// codec) and reuse across calls; the tables are immutable and safe for
// concurrent use.
type MatrixTables struct {
	k    int
	rows [][]byte // coefficient rows, each of length k
	flat [][]byte // one flattened table buffer per full matrixGroup of rows
}

// NewMatrixTables builds the kernel tables for the given coefficient rows
// (each of length k, the source count). It panics on ragged or empty
// input.
func NewMatrixTables(rows [][]byte) *MatrixTables {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("gf: NewMatrixTables needs at least one non-empty row")
	}
	k := len(rows[0])
	for _, r := range rows {
		if len(r) != k {
			panic("gf: NewMatrixTables ragged coefficient rows")
		}
	}
	mt := &MatrixTables{k: k, rows: rows}
	for g := 0; g+matrixGroup <= len(rows); g += matrixGroup {
		buf := make([]byte, k*matrixGroup*32)
		p := 0
		for s := 0; s < k; s++ {
			for r := g; r < g+matrixGroup; r++ {
				c := rows[r][s]
				copy(buf[p:], nibLow[c][:])
				p += 16
				copy(buf[p:], nibHigh[c][:])
				p += 16
			}
		}
		mt.flat = append(mt.flat, buf)
	}
	return mt
}

// Rows returns the number of output rows the tables cover.
func (mt *MatrixTables) Rows() int { return len(mt.rows) }

// fusedBlock is the portable fused tier's block size: small enough that a
// dst block stays L1-resident while every source streams through it, big
// enough to amortize the per-source call overhead.
const fusedBlock = 4096

// mulSourcesPortable is the fused tier without SIMD: the row product is
// computed block by block so dst is read from memory (at most) once
// instead of once per source.
func mulSourcesPortable(coeffs []byte, srcs [][]byte, off int, dst []byte, accumulate bool) {
	for lo := 0; lo < len(dst); lo += fusedBlock {
		hi := lo + fusedBlock
		if hi > len(dst) {
			hi = len(dst)
		}
		mulSourcesUnfused(coeffs, srcs, off+lo, dst[lo:hi], accumulate)
	}
}

// addSliceVector is the 8-way unrolled uint64 XOR kernel: eight 64-bit
// words (64 bytes) per iteration, then a word loop, then a byte tail. Word
// access goes through encoding/binary, which the compiler lowers to plain
// loads/stores; lane-wise XOR is byte-order agnostic, so this is portable.
func addSliceVector(src, dst []byte) {
	n := len(src)
	i := 0
	for ; i+64 <= n; i += 64 {
		s, d := src[i:i+64], dst[i:i+64]
		binary.LittleEndian.PutUint64(d[0:], binary.LittleEndian.Uint64(d[0:])^binary.LittleEndian.Uint64(s[0:]))
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(d[8:])^binary.LittleEndian.Uint64(s[8:]))
		binary.LittleEndian.PutUint64(d[16:], binary.LittleEndian.Uint64(d[16:])^binary.LittleEndian.Uint64(s[16:]))
		binary.LittleEndian.PutUint64(d[24:], binary.LittleEndian.Uint64(d[24:])^binary.LittleEndian.Uint64(s[24:]))
		binary.LittleEndian.PutUint64(d[32:], binary.LittleEndian.Uint64(d[32:])^binary.LittleEndian.Uint64(s[32:]))
		binary.LittleEndian.PutUint64(d[40:], binary.LittleEndian.Uint64(d[40:])^binary.LittleEndian.Uint64(s[40:]))
		binary.LittleEndian.PutUint64(d[48:], binary.LittleEndian.Uint64(d[48:])^binary.LittleEndian.Uint64(s[48:]))
		binary.LittleEndian.PutUint64(d[56:], binary.LittleEndian.Uint64(d[56:])^binary.LittleEndian.Uint64(s[56:]))
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}
