package workload

import (
	"testing"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/sim"
)

func testCluster(t *testing.T, profile core.Profile, imageSize int64) (*core.Cluster, *core.Image) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.DeviceCapacity = 4 << 30
	cfg.PGsPerPool = 128
	cfg.Store.WALRegion = 32 << 20
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	c, err := core.New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreatePool("p", profile); err != nil {
		t.Fatal(err)
	}
	img, err := c.CreateImage("p", "img", imageSize)
	if err != nil {
		t.Fatal(err)
	}
	return c, img
}

func TestJobValidation(t *testing.T) {
	c, img := testCluster(t, core.ProfileReplicated(3), 1<<30)
	bad := []Job{
		{BlockSize: 0, QueueDepth: 1, Duration: time.Second},
		{BlockSize: 4096, QueueDepth: 0, Duration: time.Second},
		{BlockSize: 4096, QueueDepth: 1, Duration: 0},
		{BlockSize: 4096, QueueDepth: 1, Duration: time.Second, Ramp: -time.Second},
		{BlockSize: 2 << 30, QueueDepth: 1, Duration: time.Second},
	}
	for i, j := range bad {
		if _, err := Run(c, img, j); err == nil {
			t.Errorf("bad job %d accepted", i)
		}
	}
}

func TestStringers(t *testing.T) {
	if Sequential.String() != "seq" || Random.String() != "rand" {
		t.Fatal("pattern strings wrong")
	}
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("op strings wrong")
	}
}

func TestReplicatedRandomWriteRun(t *testing.T) {
	c, img := testCluster(t, core.ProfileReplicated(3), 1<<30)
	res, err := Run(c, img, Job{
		Name: "t", Op: Write, Pattern: Random, BlockSize: 4096,
		QueueDepth: 64, Duration: 500 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.MBps <= 0 || res.IOPS <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("unexpected errors: %d", res.Errors)
	}
	if res.MeanLatency <= 0 || res.P99Latency < res.P50Latency {
		t.Fatalf("latency stats wrong: %v", res)
	}
	// Little's law sanity: qd ≈ IOPS × latency (loose factor for edges).
	littles := res.IOPS * res.MeanLatency.Seconds()
	if littles < 16 || littles > 96 {
		t.Fatalf("Little's law violated: qd-estimate %.1f, want ~64", littles)
	}
	// 3-rep writes must amplify device writes ≥ 3x and private net ≥ 2x.
	if amp := float64(res.Metrics.DeviceWriteBytes) / float64(res.Bytes); amp < 3 {
		t.Fatalf("3-rep device write amp = %.2f, want >= 3", amp)
	}
	if net := float64(res.Metrics.PrivateBytes) / float64(res.Bytes); net < 1.8 {
		t.Fatalf("3-rep private net per req = %.2f, want >= ~2", net)
	}
}

func TestSequentialCursorWraps(t *testing.T) {
	// A tiny image forces the sequential cursor to wrap without errors.
	c, img := testCluster(t, core.ProfileReplicated(3), 1<<20)
	res, err := Run(c, img, Job{
		Name: "wrap", Op: Write, Pattern: Sequential, BlockSize: 128 << 10,
		QueueDepth: 16, Duration: 300 * time.Millisecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("wraparound produced %d errors", res.Errors)
	}
	if res.Ops < 8 {
		t.Fatalf("too few ops: %d", res.Ops)
	}
}

func TestECReadRunWithPrefill(t *testing.T) {
	c, img := testCluster(t, core.ProfileEC(6, 3), 256<<20)
	img.Prefill()
	res, err := Run(c, img, Job{
		Name: "ecread", Op: Read, Pattern: Random, BlockSize: 4096,
		QueueDepth: 32, Ramp: 100 * time.Millisecond, Duration: 400 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no ops completed")
	}
	// Random EC reads fetch whole stripes: device reads ≈ 6x requested.
	amp := float64(res.Metrics.DeviceReadBytes) / float64(res.Bytes)
	if amp < 3 || amp > 9 {
		t.Fatalf("EC random-read amplification = %.2f, want ~6 (stripe/bs)", amp)
	}
	// And substantial private chunk-pull traffic, unlike replication.
	if net := float64(res.Metrics.PrivateBytes) / float64(res.Bytes); net < 3 {
		t.Fatalf("EC read private per req = %.2f, want ~5", net)
	}
}

func TestSamplingSeries(t *testing.T) {
	c, img := testCluster(t, core.ProfileReplicated(3), 256<<20)
	res, err := Run(c, img, Job{
		Name: "sampled", Op: Write, Pattern: Random, BlockSize: 16 << 10,
		QueueDepth: 32, Duration: 1200 * time.Millisecond, Seed: 4,
		SampleInterval: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 4 {
		t.Fatalf("samples = %d, want >= 4", len(res.Samples))
	}
	anyThroughput := false
	for _, s := range res.Samples {
		if s.MBps > 0 {
			anyThroughput = true
		}
		if s.UserCPU < 0 || s.CtxPerSec < 0 {
			t.Fatalf("negative sample values: %+v", s)
		}
	}
	if !anyThroughput {
		t.Fatal("sampler recorded no throughput")
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() Result {
		c, img := testCluster(t, core.ProfileEC(4, 2), 128<<20)
		res, err := Run(c, img, Job{
			Name: "det", Op: Write, Pattern: Random, BlockSize: 8192,
			QueueDepth: 16, Duration: 300 * time.Millisecond, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Ops != b.Ops || a.Bytes != b.Bytes || a.MeanLatency != b.MeanLatency {
		t.Fatalf("nondeterministic results: %+v vs %+v", a, b)
	}
	if a.Metrics.DeviceWriteBytes != b.Metrics.DeviceWriteBytes {
		t.Fatal("nondeterministic device counters")
	}
}

func TestMixedWorkload(t *testing.T) {
	c, img := testCluster(t, core.ProfileEC(6, 3), 256<<20)
	img.Prefill()
	res, err := Run(c, img, Job{
		Name: "mixed", Op: Mixed, MixRead: 70, Pattern: Random,
		BlockSize: 8192, QueueDepth: 32, Duration: 600 * time.Millisecond, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadOps == 0 || res.WriteOps == 0 {
		t.Fatalf("mixed job must issue both: reads=%d writes=%d", res.ReadOps, res.WriteOps)
	}
	share := float64(res.ReadOps) / float64(res.ReadOps+res.WriteOps)
	if share < 0.55 || share > 0.85 {
		t.Fatalf("read share = %.2f, want ~0.70", share)
	}
	if Mixed.String() != "mixed" {
		t.Fatal("Mixed stringer wrong")
	}
}

func TestMixedValidation(t *testing.T) {
	c, img := testCluster(t, core.ProfileReplicated(3), 64<<20)
	bad := []Job{
		{Op: Mixed, Pattern: Random, BlockSize: 4096, QueueDepth: 1, Duration: time.Second},               // no MixRead
		{Op: Mixed, MixRead: 100, Pattern: Random, BlockSize: 4096, QueueDepth: 1, Duration: time.Second}, // degenerate
		{Op: Write, Zipf: 0.5, Pattern: Random, BlockSize: 4096, QueueDepth: 1, Duration: time.Second},    // bad zipf
		{Op: Write, Rate: -5, Pattern: Random, BlockSize: 4096, Duration: time.Second},                    // negative rate
	}
	for i, j := range bad {
		if _, err := Run(c, img, j); err == nil {
			t.Errorf("bad mixed job %d accepted", i)
		}
	}
}

// TestSequentialMixed lifts the old Mixed+Sequential restriction (FIO's
// rw=rw): a sequential mixed job must run, split ops per MixRead, and land
// at a rate consistent with the pure sequential read and write rates it
// interleaves.
func TestSequentialMixed(t *testing.T) {
	run := func(op Op, mixRead int) Result {
		c, img := testCluster(t, core.ProfileEC(6, 3), 256<<20)
		img.Prefill()
		res, err := Run(c, img, Job{
			Name: "seqmix", Op: op, MixRead: mixRead, Pattern: Sequential,
			BlockSize: 16 << 10, QueueDepth: 32, Duration: 600 * time.Millisecond, Seed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pureRead := run(Read, 0)
	pureWrite := run(Write, 0)
	mixed := run(Mixed, 70)
	if mixed.Errors != 0 {
		t.Fatalf("sequential mixed job produced %d errors", mixed.Errors)
	}
	if mixed.ReadOps == 0 || mixed.WriteOps == 0 {
		t.Fatalf("sequential mixed must issue both: reads=%d writes=%d", mixed.ReadOps, mixed.WriteOps)
	}
	share := float64(mixed.ReadOps) / float64(mixed.ReadOps+mixed.WriteOps)
	if share < 0.55 || share > 0.85 {
		t.Fatalf("read share = %.2f, want ~0.70", share)
	}
	// Differential: the interleaved rate must sit in the band spanned by
	// the pure sequential rates (loose factors: mixing perturbs caching
	// and pipelining at both ends).
	lo, hi := pureWrite.MBps, pureRead.MBps
	if lo > hi {
		lo, hi = hi, lo
	}
	if mixed.MBps < lo*0.4 || mixed.MBps > hi*1.5 {
		t.Fatalf("sequential mixed rate %.1f MB/s outside [%.1f, %.1f] band from pure read %.1f / write %.1f",
			mixed.MBps, lo*0.4, hi*1.5, pureRead.MBps, pureWrite.MBps)
	}
}

func TestZipfSkewConcentratesAccesses(t *testing.T) {
	// With a strong Zipf skew the working set shrinks: far fewer distinct
	// EC objects get initialized than under uniform random writes.
	countObjects := func(zipf float64) int64 {
		c, img := testCluster(t, core.ProfileEC(6, 3), 1<<30)
		res, err := Run(c, img, Job{
			Name: "zipf", Op: Write, Pattern: Random, BlockSize: 4096,
			QueueDepth: 32, Duration: 400 * time.Millisecond, Seed: 11, Zipf: zipf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Objects
	}
	uniform := countObjects(0)
	skewed := countObjects(2.0)
	if skewed >= uniform {
		t.Fatalf("zipf skew must reduce touched objects: uniform=%d skewed=%d", uniform, skewed)
	}
}
