package workload

import (
	"reflect"
	"testing"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/sim"
)

// SampleEvery records a merged cluster time series (throughput summed over
// all jobs, CPU, context switches, network, device I/O) at the given
// interval into ScenarioResult.Samples.
func (s *Scenario) SampleEvery(interval time.Duration) *Scenario {
	if interval <= 0 {
		return s.fail("sample interval must be positive")
	}
	s.sample = interval
	return s
}

// scenarioCluster builds a small carry-capable cluster with two images on
// an EC pool plus one on a replicated pool.
func scenarioCluster(t *testing.T, carry bool, codecConc int) (*core.Cluster, *core.Image, *core.Image) {
	t.Helper()
	return scenarioClusterCfg(t, carry, codecConc, nil)
}

// scenarioClusterCfg is scenarioCluster with a config hook applied before
// construction (gray-failure knobs, cache sizes, ...).
func scenarioClusterCfg(t *testing.T, carry bool, codecConc int, tweak func(*core.Config)) (*core.Cluster, *core.Image, *core.Image) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.DeviceCapacity = 2 << 30
	cfg.PGsPerPool = 64
	cfg.CarryData = carry
	cfg.CodecConcurrency = codecConc
	if tweak != nil {
		tweak(&cfg)
	}
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	c, err := core.New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreatePool("ec", core.ProfileEC(4, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreatePool("rep", core.ProfileReplicated(3)); err != nil {
		t.Fatal(err)
	}
	imgEC, err := c.CreateImage("ec", "vol-ec", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	imgRep, err := c.CreateImage("rep", "vol-rep", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	return c, imgEC, imgRep
}

// TestScenarioDeterminism is the acceptance regression: the same seed and
// scenario — two concurrent jobs plus a mid-run OSD failure — must produce
// an identical ScenarioResult across runs, and across codec concurrency 1
// vs 4 (the parallel codec shards real reconstruction work in carry mode
// without perturbing simulated time).
func TestScenarioDeterminism(t *testing.T) {
	run := func(codecConc int) *ScenarioResult {
		c, imgEC, imgRep := scenarioCluster(t, true, codecConc)
		imgEC.Prefill()
		res, err := NewScenario(c).
			AddJob(imgEC, Job{
				Name: "reader", Op: Read, Pattern: Random, BlockSize: 8 << 10,
				QueueDepth: 16, Duration: 600 * time.Millisecond, Seed: 21,
			}).
			AddJob(imgRep, Job{
				Name: "writer", Op: Write, Pattern: Random, BlockSize: 8 << 10,
				QueueDepth: 8, Duration: 600 * time.Millisecond, Seed: 22,
			}).
			Phase("healthy", 300*time.Millisecond).
			Phase("degraded", 300*time.Millisecond).
			At(300*time.Millisecond, FailOSD(1)).
			Run()
		if err != nil {
			t.Fatal(err)
		}
		c.Engine().Drain()
		return res
	}
	a, b := run(4), run(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scenario results differ across identical runs:\n%+v\n%+v", a, b)
	}
	serial := run(1)
	if !reflect.DeepEqual(a, serial) {
		t.Fatalf("scenario results differ between codec concurrency 4 and 1:\n%+v\n%+v", a, serial)
	}
	if a.Jobs[0].Result.Ops == 0 || a.Jobs[1].Result.Ops == 0 {
		t.Fatalf("jobs idle: %+v", a)
	}
	if a.Jobs[0].Result.Errors != 0 {
		t.Fatalf("degraded reads errored: %d", a.Jobs[0].Result.Errors)
	}
}

// TestScenarioPhasesAndEvents exercises the composite shape: two jobs,
// three phases, an OSD failure and a recovery, checking the per-phase
// accounting adds up and the event log covers the transitions.
func TestScenarioPhasesAndEvents(t *testing.T) {
	c, imgEC, imgRep := scenarioCluster(t, false, 0)
	imgEC.Prefill()
	const phase = 300 * time.Millisecond
	res, err := NewScenario(c).
		AddJob(imgEC, Job{
			Name: "fg", Op: Read, Pattern: Random, BlockSize: 4 << 10,
			QueueDepth: 32, Duration: 3 * phase, Seed: 1,
		}).
		AddJob(imgRep, Job{
			Name: "bg", Op: Mixed, MixRead: 50, Pattern: Random, BlockSize: 16 << 10,
			QueueDepth: 8, Duration: 3 * phase, Seed: 2,
		}).
		Phase("healthy", phase).
		Phase("degraded", phase).
		Phase("recovering", phase).
		At(phase, FailOSD(2)).
		At(2*phase, StartRecovery("ec")).
		SampleEvery(100 * time.Millisecond).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	c.Engine().Drain()

	if len(res.Phases) != 3 || res.Phases[2].Name != "recovering" {
		t.Fatalf("phases = %+v", res.Phases)
	}
	if len(res.PhaseMetrics) != 3 {
		t.Fatalf("phase metrics = %d, want 3", len(res.PhaseMetrics))
	}
	for i, jr := range res.Jobs {
		if len(jr.Phases) != 3 {
			t.Fatalf("job %d phase results = %d, want 3", i, len(jr.Phases))
		}
		var ops, bytes int64
		for _, pr := range jr.Phases {
			ops += pr.Ops
			bytes += pr.Bytes
		}
		if ops != jr.Result.Ops || bytes != jr.Result.Bytes {
			t.Fatalf("job %d phase sums ops=%d bytes=%d != totals ops=%d bytes=%d",
				i, ops, bytes, jr.Result.Ops, jr.Result.Bytes)
		}
		if jr.Phases[0].Ops == 0 {
			t.Fatalf("job %d idle in healthy phase", i)
		}
	}
	if fg := res.Job("fg"); fg == nil || fg.Result.Errors != 0 {
		t.Fatalf("fg job missing or errored: %+v", fg)
	}
	if len(res.Recoveries) != 1 || res.Recoveries[0].Err != nil {
		t.Fatalf("recoveries = %+v", res.Recoveries)
	}
	if res.Recoveries[0].Stats.PGsRepaired == 0 {
		t.Fatal("recovery repaired nothing")
	}
	kinds := map[string]int{}
	for _, ev := range res.Events {
		kinds[ev.Kind]++
	}
	if kinds["osd-out"] != 1 || kinds["recovery-start"] != 1 || kinds["recovery-done"] != 1 {
		t.Fatalf("event log incomplete: %v", kinds)
	}
	if len(res.Samples) < 5 {
		t.Fatalf("merged samples = %d, want >= 5", len(res.Samples))
	}
	// Phase metrics window lengths must match the declared phases.
	for i, pm := range res.PhaseMetrics {
		if pm.WindowSeconds < 0.25 || pm.WindowSeconds > 0.35 {
			t.Fatalf("phase %d window = %.3fs, want ~0.3", i, pm.WindowSeconds)
		}
	}
	// The degraded/recovering phases must show the reconstruction tax:
	// more private-network traffic per fg byte than the healthy phase.
	fg := res.Job("fg")
	healthy, recovering := fg.Phases[0], fg.Phases[2]
	if healthy.Bytes > 0 && recovering.Bytes > 0 {
		if perHealthy, perRec := float64(res.PhaseMetrics[0].PrivateBytes)/float64(healthy.Bytes),
			float64(res.PhaseMetrics[2].PrivateBytes)/float64(recovering.Bytes); perRec <= perHealthy {
			t.Fatalf("recovery phase private/req %.2f not above healthy %.2f", perRec, perHealthy)
		}
	}
}

// TestScenarioOpenLoopRate pins the open-loop pacer: a Rate-paced job must
// complete about Rate ops/second when the cluster is unsaturated.
func TestScenarioOpenLoopRate(t *testing.T) {
	c, imgEC, _ := scenarioCluster(t, false, 0)
	imgEC.Prefill()
	const rate = 2000.0
	res, err := NewScenario(c).
		AddJob(imgEC, Job{
			Name: "open", Op: Read, Pattern: Random, BlockSize: 4 << 10,
			Rate: rate, Duration: 500 * time.Millisecond, Seed: 3,
		}).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	c.Engine().Drain()
	got := res.Jobs[0].Result.IOPS
	if got < rate*0.85 || got > rate*1.10 {
		t.Fatalf("open-loop IOPS = %.0f, want ~%.0f", got, rate)
	}
	if res.Jobs[0].Result.MeanLatency <= 0 {
		t.Fatal("open-loop latency not recorded")
	}
}

// TestScenarioRecoveryThrottle: a recovery-rate cap must stretch the
// repair pass to at least moved-bytes/rate of simulated time, and the
// unthrottled pass must be faster.
func TestScenarioRecoveryThrottle(t *testing.T) {
	run := func(rate int64) RecoveryResult {
		c, imgEC, _ := scenarioCluster(t, false, 0)
		imgEC.Prefill()
		sc := NewScenario(c).
			AddJob(imgEC, Job{
				Name: "fg", Op: Read, Pattern: Random, BlockSize: 4 << 10,
				QueueDepth: 4, Duration: 400 * time.Millisecond, Seed: 5,
			}).
			At(50*time.Millisecond, FailOSD(0)).
			At(100*time.Millisecond, StartRecovery("ec"))
		if rate > 0 {
			sc.At(90*time.Millisecond, SetRecoveryRate("ec", rate))
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		c.Engine().Drain()
		if len(res.Recoveries) != 1 || res.Recoveries[0].Err != nil {
			t.Fatalf("recoveries = %+v", res.Recoveries)
		}
		return res.Recoveries[0]
	}
	fast := run(0)
	const capBps = 64 << 20
	slow := run(capBps)
	if slow.Stats.BytesRebuilt == 0 {
		t.Fatal("throttled recovery rebuilt nothing")
	}
	moved := slow.Stats.BytesPulled + slow.Stats.BytesRebuilt
	minDur := time.Duration(float64(moved) / float64(capBps) * 1e9)
	if slow.Stats.DurationSimulated < minDur {
		t.Fatalf("throttled recovery took %v, cap implies >= %v", slow.Stats.DurationSimulated, minDur)
	}
	if slow.Stats.DurationSimulated <= fast.Stats.DurationSimulated {
		t.Fatalf("throttle had no effect: throttled %v <= unthrottled %v",
			slow.Stats.DurationSimulated, fast.Stats.DurationSimulated)
	}
}

// TestScenarioPerJobSamplerStopsAtJobEnd: a short sampled job inside a
// longer scenario must not accumulate trailing samples past its own
// window (they would attribute other jobs' cluster activity to it).
func TestScenarioPerJobSamplerStopsAtJobEnd(t *testing.T) {
	c, imgEC, imgRep := scenarioCluster(t, false, 0)
	imgEC.Prefill()
	res, err := NewScenario(c).
		AddJob(imgEC, Job{
			Name: "short", Op: Read, Pattern: Random, BlockSize: 4096,
			QueueDepth: 8, Duration: 300 * time.Millisecond, Seed: 1,
			SampleInterval: 50 * time.Millisecond,
		}).
		AddJob(imgRep, Job{
			Name: "long", Op: Write, Pattern: Random, BlockSize: 4096,
			QueueDepth: 8, Duration: 900 * time.Millisecond, Seed: 2,
		}).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	c.Engine().Drain()
	short := res.Job("short")
	if len(short.Result.Samples) == 0 {
		t.Fatal("short job recorded no samples")
	}
	for _, sm := range short.Result.Samples {
		if sm.Second > 0.301 {
			t.Fatalf("sample at t=%.2fs past the job's 0.3s window", sm.Second)
		}
	}
}

// TestScenarioValidation covers deferred construction errors.
func TestScenarioValidation(t *testing.T) {
	c, imgEC, _ := scenarioCluster(t, false, 0)
	ok := Job{Op: Read, Pattern: Random, BlockSize: 4096, QueueDepth: 1, Duration: time.Second}
	cases := map[string]*Scenario{
		"no jobs":        NewScenario(c),
		"nil image":      NewScenario(c).AddJob(nil, ok),
		"bad job":        NewScenario(c).AddJob(imgEC, Job{}),
		"negative start": NewScenario(c).AddJobAt(-time.Second, imgEC, ok),
		"negative event": NewScenario(c).AddJob(imgEC, ok).At(-1, FailOSD(0)),
		"nil event":      NewScenario(c).AddJob(imgEC, ok).At(0, nil),
		"bad osd":        NewScenario(c).AddJob(imgEC, ok).At(0, FailOSD(999)),
		"bad pool":       NewScenario(c).AddJob(imgEC, ok).At(0, StartRecovery("nope")),
		"bad phase":      NewScenario(c).AddJob(imgEC, ok).Phase("p", 0),
		"bad sample":     NewScenario(c).AddJob(imgEC, ok).SampleEvery(0),
		"bad ramp":       NewScenario(c).AddJob(imgEC, ok).Ramp(-time.Second),
		"nil callback":   NewScenario(c).AddJob(imgEC, ok).At(0, Callback("x", nil)),
	}
	for name, sc := range cases {
		if _, err := sc.Run(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestScenarioCallbackAndRestore: the escape-hatch event runs in virtual
// time, and RestoreOSD re-admits a failed OSD mid-run.
func TestScenarioCallbackAndRestore(t *testing.T) {
	c, imgEC, _ := scenarioCluster(t, false, 0)
	imgEC.Prefill()
	var cbAt time.Duration
	res, err := NewScenario(c).
		AddJob(imgEC, Job{
			Name: "fg", Op: Read, Pattern: Random, BlockSize: 4096,
			QueueDepth: 8, Duration: 300 * time.Millisecond, Seed: 9,
		}).
		At(100*time.Millisecond, FailOSD(3)).
		At(200*time.Millisecond, RestoreOSD(3)).
		At(150*time.Millisecond, Callback("probe", func(p *sim.Proc, cc *core.Cluster) {
			cbAt = time.Duration(p.Now())
		})).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	c.Engine().Drain()
	if cbAt != 150*time.Millisecond {
		t.Fatalf("callback ran at %v, want 150ms", cbAt)
	}
	if !c.OSDs()[3].Up() {
		t.Fatal("osd3 not restored")
	}
	kinds := map[string]int{}
	for _, ev := range res.Events {
		kinds[ev.Kind]++
	}
	if kinds["osd-out"] != 1 || kinds["osd-in"] != 1 {
		t.Fatalf("event log = %v", kinds)
	}
	if res.Jobs[0].Result.Errors != 0 {
		t.Fatalf("reads errored across fail/restore: %d", res.Jobs[0].Result.Errors)
	}
}
