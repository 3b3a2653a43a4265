// Package rs implements Reed-Solomon erasure coding over GF(2^8).
//
// This is the coding machinery the reproduced paper characterizes (§II-C):
// RS(k,m) splits data into k data chunks, computes m coding (parity) chunks
// via a systematic generator matrix derived from an extended Vandermonde
// matrix, and can repair any ≤ m lost chunks by inverting the surviving rows
// of the generator ("recover matrix") and multiplying with the remaining
// chunks. RS codes are maximum distance separable: the storage overhead
// (k+m)/k is optimal for the achieved fault tolerance.
//
// The two configurations the paper evaluates are RS(6,3) (Google Colossus)
// and RS(10,4) (Facebook's HDFS-RAID/f4).
//
// # Performance knobs
//
// The codec hot path (Encode, Reconstruct, UpdateParity) runs on the
// GF(2^8) kernel tier the CPU picks once at start-up (fused AVX2, or
// GFNI/AVX-512 where present; see [ecarray/internal/gf.ActiveKernel]).
// Each parity row is one fused row product: all k data shards are consumed
// in a single pass and the row is written once, instead of re-reading it
// once per source. The one knob is concurrency: [Code.WithConcurrency]
// returns a codec that shards row products across output rows and byte
// spans onto up to n goroutines. The default codec is serial. Output is
// byte-identical at any concurrency level, so simulation results stay
// deterministic.
//
// StreamEncode/StreamDecode hold their stripe buffers in a pool shared by
// every codec derived from the same New call, so steady-state streaming
// on the serial codec allocates nothing per stripe and decodes with a
// recover matrix inverted once per stream.
//
// [MeasureEncodeMBps] measures the configured codec's real encode
// throughput; internal/core uses it to calibrate its simulated CPU cost
// per encoded byte.
package rs

import (
	"errors"
	"fmt"

	"ecarray/internal/gf"
	"ecarray/internal/matrix"
)

// Common errors.
var (
	ErrTooFewShards    = errors.New("rs: too few shards to reconstruct")
	ErrShardSize       = errors.New("rs: shards must be non-empty and equally sized")
	ErrShardCount      = errors.New("rs: wrong number of shards")
	ErrInvalidRSParams = errors.New("rs: k and m must be positive and k+m <= 256")
)

// Code is an RS(k,m) encoder/decoder. It is immutable after construction and
// safe for concurrent use.
type Code struct {
	k, m  int
	gen   *matrix.Matrix   // (k+m)×k systematic generator
	enc   *gf.MatrixTables // kernel-ready parity rows of gen (encode hot path)
	conc  int              // max workers for the hot path; <=1 means serial
	pools *codecPools      // shared scratch (stream stripes, update deltas)
}

// New constructs an RS(k,m) code. k is the number of data chunks, m the
// number of coding chunks per stripe.
func New(k, m int) (*Code, error) {
	if k <= 0 || m <= 0 || k+m > gf.Order {
		return nil, fmt.Errorf("%w: k=%d m=%d", ErrInvalidRSParams, k, m)
	}
	gen := matrix.Generator(k, m)
	parityRows := make([][]byte, m)
	for p := 0; p < m; p++ {
		parityRows[p] = gen.Row(k + p)
	}
	return &Code{
		k:     k,
		m:     m,
		gen:   gen,
		enc:   gf.NewMatrixTables(parityRows),
		pools: &codecPools{},
	}, nil
}

// String implements fmt.Stringer, e.g. "RS(6,3)".
func (c *Code) String() string { return fmt.Sprintf("RS(%d,%d)", c.k, c.m) }

// checkShards returns the common length of the present shards. A shard is
// missing when it is empty (nil or zero-length); allowMissing says whether
// that is allowed.
func (c *Code) checkShards(shards [][]byte, allowMissing bool) (size int, err error) {
	if len(shards) != c.k+c.m {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), c.k+c.m)
	}
	size = -1
	for _, s := range shards {
		if len(s) == 0 {
			if !allowMissing {
				return 0, ErrShardSize
			}
			continue
		}
		if size < 0 {
			size = len(s)
		}
		if len(s) != size {
			return 0, ErrShardSize
		}
	}
	if size < 0 {
		return 0, ErrTooFewShards
	}
	return size, nil
}

// Encode computes the m parity shards from the k data shards. shards must
// hold k+m equally sized slices: the first k contain data, the last m are
// overwritten with parity.
func (c *Code) Encode(shards [][]byte) error {
	size, err := c.checkShards(shards, false)
	if err != nil {
		return err
	}
	if c.Concurrency() == 1 {
		// Serial fast path: one row-batched matrix call, no per-call job
		// allocation. The precomputed tables make this the widest fusion
		// available — sources are loaded once for up to four parity rows.
		gf.MulMatrixRange(c.enc, shards[:c.k], shards[c.k:], 0, size, false)
		return nil
	}
	jobs := [1]mulJob{{mt: c.enc, srcs: shards[:c.k], outs: shards[c.k:]}}
	c.runJobs(jobs[:], size)
	return nil
}

// Reconstruct rebuilds every missing shard in place, data and parity
// alike. A shard is missing when it is empty: nil, or zero-length. A
// zero-length shard whose capacity holds a whole shard is rebuilt into that
// capacity (which must not overlap a present shard), so a caller can
// recycle its buffers; a nil one, or one with too little capacity, gets a
// new buffer. At least k shards must be present. Present shards are never
// modified. This is the paper's decoding operation: a recover matrix is
// formed by inverting the generator rows of k surviving chunks and
// multiplying it with those chunks (§II-C, Fig 3c).
func (c *Code) Reconstruct(shards [][]byte) error {
	return c.reconstruct(shards, false)
}

// ReconstructData rebuilds only the missing data shards, as Reconstruct
// does, leaving missing parity shards as they are. This matches a degraded
// read, which does not need to re-materialize parity.
func (c *Code) ReconstructData(shards [][]byte) error {
	return c.reconstruct(shards, true)
}

// recoverPlan derives the decode plan shared by Reconstruct and the
// streaming path: invert the generator rows of the k surviving chunks
// (the rows that were used to compute them — the paper's recover matrix,
// §II-C Fig 3c) and gather those chunks' buffers as the multiply sources.
// rows must hold exactly k shard indices in ascending order; bufs[r] is
// shard r's buffer.
func (c *Code) recoverPlan(rows []int, bufs [][]byte) (*matrix.Matrix, [][]byte, error) {
	sub := c.gen.SubMatrix(rows)
	recover, err := sub.Invert()
	if err != nil {
		// Cannot happen for an MDS generator; guard anyway.
		return nil, nil, fmt.Errorf("rs: recover matrix: %w", err)
	}
	src := make([][]byte, c.k)
	for i, r := range rows {
		src[i] = bufs[r]
	}
	return recover, src, nil
}

func (c *Code) reconstruct(shards [][]byte, dataOnly bool) error {
	size, err := c.checkShards(shards, true)
	if err != nil {
		return err
	}
	present := make([]int, 0, c.k+c.m)
	for i, s := range shards {
		if len(s) != 0 {
			present = append(present, i)
		}
	}
	if len(present) == c.k+c.m {
		return nil
	}
	if len(present) < c.k {
		return fmt.Errorf("%w: %d present, need %d", ErrTooFewShards, len(present), c.k)
	}

	recover, src, err := c.recoverPlan(present[:c.k], shards)
	if err != nil {
		return err
	}

	// Rebuild missing data shards: dataRow_i = recover.Row(i) × src. All
	// missing rows are independent, so they shard across workers together.
	var dataJobs []mulJob
	for d := 0; d < c.k; d++ {
		if len(shards[d]) != 0 {
			continue
		}
		out := rebuildInto(shards[d], size)
		dataJobs = append(dataJobs, mulJob{coeffs: recover.Row(d), srcs: src, out: out})
		shards[d] = out
	}
	c.runJobs(dataJobs, size)
	if dataOnly {
		return nil
	}
	// Rebuild missing parity from the (now complete) data shards.
	var parityJobs []mulJob
	for p := 0; p < c.m; p++ {
		if len(shards[c.k+p]) != 0 {
			continue
		}
		out := rebuildInto(shards[c.k+p], size)
		parityJobs = append(parityJobs, mulJob{coeffs: c.gen.Row(c.k + p), srcs: shards[:c.k], out: out})
		shards[c.k+p] = out
	}
	c.runJobs(parityJobs, size)
	return nil
}

// rebuildInto returns the buffer a missing shard is rebuilt into: its own
// capacity when that holds size bytes, else a new buffer. Its contents are
// overwritten, so stale bytes there do not matter.
func rebuildInto(missing []byte, size int) []byte {
	if cap(missing) >= size {
		return missing[:size]
	}
	return make([]byte, size)
}

// UpdateParity incrementally updates the m parity shards after data shard
// dataIdx changes from oldData to newData: parity_p ^= gen[k+p][dataIdx] ×
// (old ^ new). This is the read-modify-write parity update path of a
// sub-stripe overwrite (paper §V-B: "reading the underlying data chunks,
// regenerating coding chunks and updating the corresponding stripe").
func (c *Code) UpdateParity(dataIdx int, oldData, newData []byte, parity [][]byte) error {
	if dataIdx < 0 || dataIdx >= c.k {
		return fmt.Errorf("rs: UpdateParity: bad data index %d", dataIdx)
	}
	if len(parity) != c.m {
		return ErrShardCount
	}
	if len(oldData) != len(newData) || len(oldData) == 0 {
		return ErrShardSize
	}
	delta := c.getDelta(len(oldData))
	defer c.putDelta(delta)
	copy(delta, oldData)
	gf.AddSlice(newData, delta)
	for p := 0; p < c.m; p++ {
		if len(parity[p]) != len(delta) {
			return ErrShardSize
		}
	}
	if c.Concurrency() == 1 {
		for p := 0; p < c.m; p++ {
			gf.MulAddSlice(c.gen.Row(c.k + p)[dataIdx], delta, parity[p])
		}
		return nil
	}
	// Small stack-backed job list for the common parity widths; runJobs
	// copies jobs into its pooled state, so this does not escape.
	var jobsArr [8]mulJob
	jobs := jobsArr[:0]
	if c.m > len(jobsArr) {
		jobs = make([]mulJob, 0, c.m)
	}
	for p := 0; p < c.m; p++ {
		jobs = append(jobs, mulJob{
			coeffs:     c.gen.Row(c.k + p)[dataIdx : dataIdx+1],
			srcs:       [][]byte{delta},
			out:        parity[p],
			accumulate: true,
		})
	}
	c.runJobs(jobs, len(delta))
	return nil
}
