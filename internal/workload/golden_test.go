package workload

import (
	"fmt"
	"testing"
	"time"

	"ecarray/internal/sim"
)

// goldenScenarioDigest pins every field of the ScenarioResult of a
// fault+recovery scenario — closed-loop and open-loop jobs, a mid-run OSD
// failure, a throttled repair pass, phase windows, samples and the event
// log — plus the cluster's metrics and private-network counters and the
// bytes of one more read issued after Engine.Drain (which exercises process
// reuse from the drained pool). A changed value means simulated behaviour
// shifted; re-capture only when that is intended. goldenScenarioEvents is
// the engine's dispatched-event count over the same run: it moves when the
// simulator spends a different number of events on the same behaviour.
const (
	goldenScenarioDigest = "e4c1b40df29ec066"
	goldenScenarioEvents = 801132
)

func scenarioGoldenDigest(t *testing.T, codecConc int) (string, uint64) {
	t.Helper()
	c, imgEC, imgRep := scenarioCluster(t, true, codecConc)
	imgEC.Prefill()
	res, err := NewScenario(c).
		AddJob(imgEC, Job{
			Name: "reader", Op: Read, Pattern: Random, BlockSize: 8 << 10,
			QueueDepth: 8, Duration: 900 * time.Millisecond, Seed: 31,
		}).
		AddJob(imgRep, Job{
			Name: "paced", Op: Mixed, MixRead: 70, Pattern: Random, BlockSize: 4 << 10,
			QueueDepth: 4, Rate: 2000, Duration: 900 * time.Millisecond, Seed: 32,
		}).
		Phase("healthy", 300*time.Millisecond).
		Phase("degraded", 300*time.Millisecond).
		Phase("recovering", 300*time.Millisecond).
		At(300*time.Millisecond, FailOSD(2)).
		At(600*time.Millisecond, SetRecoveryRate("ec", 64<<20)).
		At(600*time.Millisecond, StartRecovery("ec")).
		SampleEvery(150 * time.Millisecond).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	e := c.Engine()
	e.Drain()

	// One more request on the drained engine: with the pooled-process
	// engine this reuses parked workers (including ones killed by Drain),
	// and must not perturb simulated behaviour.
	var post []byte
	var postAt sim.Time
	e.RunProc("post-drain", func(p *sim.Proc) {
		var err error
		if post, err = imgEC.Read(p, 0, 8<<10); err != nil {
			t.Errorf("post-drain read: %v", err)
		}
		postAt = p.Now()
	})

	sum := uint64(14695981039346656037)
	fold := func(s string) {
		for i := 0; i < len(s); i++ {
			sum ^= uint64(s[i])
			sum *= 1099511628211
		}
	}
	// %#v, not %+v: JobResult promotes Result.String, which would hide
	// every per-job field but the summary line.
	fold(fmt.Sprintf("%#v", *res))
	net := c.PrivateNetwork()
	fold(fmt.Sprintf("metrics=%#v|net=%d/%d/%d", c.Metrics(), net.Bytes(), net.Messages(), net.LoopbackBytes()))
	fold(fmt.Sprintf("post=%d@%d|", len(post), postAt))
	fold(string(post))
	return fmt.Sprintf("%016x", sum), e.Executed()
}

// TestScenarioGoldenDigest is the old-vs-new engine regression for whole
// scenarios: same seed + scenario → byte-identical ScenarioResult across the
// engine rebuild, across codec concurrency 1 vs 4, through FailOSD, a paced
// recovery, and process reuse after Drain.
func TestScenarioGoldenDigest(t *testing.T) {
	for _, conc := range []int{1, 4} {
		got, events := scenarioGoldenDigest(t, conc)
		if got != goldenScenarioDigest {
			t.Errorf("codec concurrency %d: scenario digest = %s, want golden %s",
				conc, got, goldenScenarioDigest)
		}
		if events != goldenScenarioEvents {
			t.Errorf("codec concurrency %d: engine events = %d, want golden %d",
				conc, events, goldenScenarioEvents)
		}
	}
}
