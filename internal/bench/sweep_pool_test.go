package bench

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ecarray/internal/gf"
)

// sweepAt runs the grid with microSweepOptions at the given GOMAXPROCS and
// checks the progress contract on the way: one call per cell, never two at
// once, done counting 1..n.
func sweepAt(t *testing.T, procs int, opt Options, g Grid, shardIdx, shardCount int) (*BenchReport, []string, error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s, err := NewSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	var (
		ids    []string // appended unsynchronized: -race flags concurrent calls
		inside atomic.Int32
	)
	r, err := s.RunSweep("micro", g, shardIdx, shardCount, func(done, total int, id string) {
		if inside.Add(1) != 1 {
			t.Error("progress called concurrently")
		}
		defer inside.Add(-1)
		ids = append(ids, id)
		if done != len(ids) {
			t.Errorf("progress done = %d on call %d", done, len(ids))
		}
	})
	if err == nil && len(ids) != len(r.Cells) {
		t.Errorf("progress called %d times for %d cells", len(ids), len(r.Cells))
	}
	return r, ids, err
}

// TestSweepPoolDeterminism: the smoke grid digests the same on one worker,
// on four, and shard-split across two runs and merged. A calibrated run
// measures the codec once per EC scheme, before any cell starts, on the
// tier the CPU picked.
func TestSweepPoolDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs are slow")
	}
	_, g, err := SweepPreset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	run := func(procs, shardIdx, shardCount int) *BenchReport {
		r, _, err := sweepAt(t, procs, microSweepOptions(), g, shardIdx, shardCount)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	one, four := run(1, 0, 1), run(4, 0, 1)
	if len(one.Cells) != len(g.Cells()) {
		t.Fatalf("ran %d cells, grid has %d", len(one.Cells), len(g.Cells()))
	}
	if one.DeterministicDigest() != four.DeterministicDigest() {
		t.Fatalf("digest %s on one worker, %s on four", one.DeterministicDigest(), four.DeterministicDigest())
	}
	merged, err := MergeReports(run(4, 0, 2), run(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if merged.DeterministicDigest() != one.DeterministicDigest() {
		t.Fatalf("digest %s merged from two shards, %s unsharded", merged.DeterministicDigest(), one.DeterministicDigest())
	}
	// Per-core accounting: the report's wall time is the sum of its cells'.
	var cellMS float64
	for _, c := range four.Cells {
		cellMS += c.WallMS
	}
	if got := four.Engine.WallSeconds * 1e3; got < cellMS*0.99 || got > cellMS*1.01 {
		t.Fatalf("engine wall %.1f ms, cells sum to %.1f ms", got, cellMS)
	}

	// Calibrated: the measured encode cost feeds the simulation, so this run
	// is checked for its calibrations, not its digest. On one worker the
	// grid's first two cells are 3-Rep, which measure nothing, so a
	// calibration made lazily by a cell would not yet be in the cache when
	// the first cell completes.
	opt := microSweepOptions()
	opt.CalibrateEncode = true
	opt.CodecConcurrency = 1
	s, err := NewSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	atFirstCell := -1
	cal, err := s.RunSweep("micro", g, 0, 1, func(done, _ int, _ string) {
		if done == 1 {
			atFirstCell = len(s.mbps)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if atFirstCell != 1 {
		t.Fatalf("%d calibrations cached when the first cell completed, want 1", atFirstCell)
	}
	if len(cal.Calibrations) != 1 {
		t.Fatalf("calibrations %+v, want one for RS(6,3)", cal.Calibrations)
	}
	if c := cal.Calibrations[0]; c.K != 6 || c.M != 3 || c.Kernel != gf.ActiveKernel().String() || c.MBps <= 0 {
		t.Fatalf("calibration %+v, want RS(6,3) measured on %v", c, gf.ActiveKernel())
	}
}

// TestSweepPoolStopsOnFailure: the third cell of the grid cannot build its
// cluster (the object size is not a multiple of its stripe unit), and so
// does the sixth. Whatever the worker count, the third cell's error comes
// back; on one worker nothing after it runs.
func TestSweepPoolStopsOnFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs are slow")
	}
	g := microGrid()
	g.BlockSizes = []int64{4 << 10}
	g.StripeUnits = []int64{4 << 10, 8 << 10, 3000}
	cells := g.Cells()
	if len(cells) != 6 || cells[2].StripeUnit != 3000 || cells[5].StripeUnit != 3000 {
		t.Fatalf("grid does not put the bad stripe unit third and sixth: %+v", cells)
	}
	for _, procs := range []int{1, 2, 8} {
		_, ids, err := sweepAt(t, procs, microSweepOptions(), g, 0, 1)
		if err == nil || !strings.Contains(err.Error(), cells[2].ID()) {
			t.Fatalf("GOMAXPROCS=%d: error %v, want the failure of %s", procs, err, cells[2].ID())
		}
		for _, id := range ids {
			if id == cells[2].ID() || id == cells[5].ID() {
				t.Errorf("GOMAXPROCS=%d: progress reported failed cell %s", procs, id)
			}
		}
		if procs == 1 && (len(ids) != 2 || ids[0] != cells[0].ID() || ids[1] != cells[1].ID()) {
			t.Errorf("one worker ran %v, want exactly the two cells before the failure", ids)
		}
	}
}

// TestSweepLeavesNoGoroutines: every cell's engine is closed, so a sweep
// leaves behind none of the worker goroutines its engines pooled (each of
// which would pin its cluster), nor any of its own.
func TestSweepLeavesNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs are slow")
	}
	before := runtime.NumGoroutine()
	runMicroSweep(t, 0, 1)
	// Close waits for the workers' loops to return; the runtime may take a
	// moment more to retire the goroutines themselves.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before+5 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+5 {
		t.Fatalf("%d goroutines after the sweep, %d before", got, before)
	}
}
