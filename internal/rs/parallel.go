package rs

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ecarray/internal/gf"
)

// Work sharding for the codec hot path. Encode, Reconstruct and
// UpdateParity all reduce to a set of independent row products
// out = Σ coeffs[i] × srcs[i]; rows are further split into byte spans so a
// stripe wider than one span can occupy several cores. Span boundaries are
// fixed (not load-dependent), every span of every row is computed with the
// same arithmetic as the serial path, and spans never overlap — so results
// are byte-identical regardless of concurrency.

const (
	// spanBytes is the target bytes per parallel work unit. Big enough to
	// amortize goroutine scheduling, small enough to split a single large
	// shard across cores.
	spanBytes = 32 << 10
	// minParallelBytes is the smallest total job size worth fanning out.
	minParallelBytes = 16 << 10
	// spanAlign keeps span boundaries aligned to the fused kernels' 256-byte
	// chunk (and therefore cache lines), so no two workers write the same
	// line and every span but the last runs entirely inside the fused
	// assembly.
	spanAlign = 256
)

// mulJob is either one output row — out = Σ coeffs[i] × srcs[i], skipping
// zero coefficients — or, when mt is set, a row batch: outs[r] = row r of
// the precomputed coefficient matrix applied to srcs (the encode path,
// which fuses up to four rows into one pass over the sources). All srcs
// and outputs have the same length. With accumulate set, outputs hold
// prior content and the products XOR into them instead of replacing them.
type mulJob struct {
	coeffs     []byte
	srcs       [][]byte
	out        []byte
	accumulate bool

	// Row-batched form (used instead of coeffs/out when mt != nil).
	mt   *gf.MatrixTables
	outs [][]byte
}

// run computes the job's products over byte window [lo, hi) with fused
// multi-source kernel calls: every source is consumed in a single pass
// and each output is written once (the per-source tiers fall back to one
// kernel call per source inside gf).
func (j *mulJob) run(lo, hi int) {
	if j.mt != nil {
		gf.MulMatrixRange(j.mt, j.srcs, j.outs, lo, hi-lo, j.accumulate)
		return
	}
	gf.MulSourcesRange(j.coeffs, j.srcs, lo, j.out[lo:hi], j.accumulate)
}

// WithConcurrency returns a codec identical to c that shards Encode,
// Reconstruct and UpdateParity across up to n goroutines. n <= 0 selects
// GOMAXPROCS. n == 1 is the serial codec. The generator matrix is shared;
// the returned codec (like c) is immutable and safe for concurrent use,
// and its output is byte-identical to the serial codec's.
func (c *Code) WithConcurrency(n int) *Code {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	d := *c
	d.conc = n
	return &d
}

// Concurrency reports the codec's maximum worker count (1 = serial).
func (c *Code) Concurrency() int {
	if c.conc <= 0 {
		return 1
	}
	return c.conc
}

// rows reports how many output rows the job computes (a matrix job is one
// schedulable unit covering several rows).
func (j *mulJob) rows() int {
	if j.mt != nil {
		return j.mt.Rows()
	}
	return 1
}

// task is one schedulable unit: a byte window of one job.
type task struct{ job, lo, hi int }

// runState is the recycled scratch of one concurrent runJobs call: the
// task list, the job copies, and the worker rendezvous. Pooling it (plus
// spawning workers through the pre-built workFn closure, so the go
// statements need no per-call wrapper allocation) keeps carry-mode
// clusters with CodecConcurrency > 1 at zero allocations per stripe, like
// the serial streaming path.
type runState struct {
	jobs   []mulJob
	tasks  []task
	next   atomic.Int64
	wg     sync.WaitGroup
	workFn func() // st.work method value, built once per state
}

func (st *runState) work() {
	defer st.wg.Done()
	for {
		i := int(st.next.Add(1)) - 1
		if i >= len(st.tasks) {
			return
		}
		t := st.tasks[i]
		st.jobs[t.job].run(t.lo, t.hi)
	}
}

// getRun returns a recycled runState with empty task and job lists.
func (c *Code) getRun() *runState {
	st, _ := c.pools.runs.Get().(*runState)
	if st == nil {
		st = &runState{}
		st.workFn = st.work
	}
	return st
}

// putRun recycles st, dropping references to caller buffers so the pool
// does not pin shard memory.
func (c *Code) putRun(st *runState) {
	for i := range st.jobs {
		st.jobs[i] = mulJob{}
	}
	st.jobs = st.jobs[:0]
	st.tasks = st.tasks[:0]
	st.next.Store(0)
	c.pools.runs.Put(st)
}

// runJobs executes the row products, fanning out across byte spans when
// the codec is concurrent and the work is large enough to pay for it.
func (c *Code) runJobs(jobs []mulJob, size int) {
	workers := c.Concurrency()
	maxRows := 1
	if workers > 1 {
		total := 0
		for i := range jobs {
			r := jobs[i].rows()
			total += size * r
			if r > maxRows {
				maxRows = r
			}
		}
		if total < minParallelBytes {
			workers = 1
		}
	}
	if workers <= 1 || len(jobs) == 0 {
		for i := range jobs {
			jobs[i].run(0, size)
		}
		return
	}

	// Target spanBytes of *work* per task: a row-batched job does maxRows
	// rows of arithmetic per byte of span, so its spans shrink accordingly.
	target := spanBytes / maxRows
	if target < spanAlign {
		target = spanAlign
	}
	spans := (size + target - 1) / target
	if spans < 1 {
		spans = 1
	}
	span := (size + spans - 1) / spans
	span = (span + spanAlign - 1) &^ (spanAlign - 1)
	spans = (size + span - 1) / span

	// Jobs are copied into the pooled state (not referenced), so a
	// caller's stack-allocated job array never escapes through here.
	st := c.getRun()
	st.jobs = append(st.jobs, jobs...)
	for j := range st.jobs {
		for lo := 0; lo < size; lo += span {
			hi := lo + span
			if hi > size {
				hi = size
			}
			st.tasks = append(st.tasks, task{j, lo, hi})
		}
	}
	if workers > len(st.tasks) {
		workers = len(st.tasks)
	}

	st.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go st.workFn()
	}
	st.work() // the caller is worker 0
	st.wg.Wait()
	c.putRun(st)
}
