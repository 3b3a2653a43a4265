package workload

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/sim"
	"ecarray/internal/ssd"
)

// goldenGrayScenarioDigest pins the full gray-failure lifecycle byte-for-
// byte: a healthy phase, a 10×-latency degradation of one OSD that trips
// the osd-slow → osd-eject circuit breaker, a health restore that re-admits
// the OSD through probation and backfill, and a post-drain read — with the
// tail-tolerant fetch path (deadlines, retries, hedges) active throughout.
// A changed value means the gray subsystem shifted simulated behaviour;
// re-capture only when that is intended.
const goldenGrayScenarioDigest = "eb17d157efd98ab7"

// grayScenarioCluster is scenarioCluster with the tail-tolerance knobs on.
func grayScenarioCluster(t *testing.T, carry bool, codecConc int) (*core.Cluster, *core.Image, *core.Image) {
	t.Helper()
	c, imgEC, imgRep := scenarioClusterCfg(t, carry, codecConc, func(cfg *core.Config) {
		cfg.Gray = core.DefaultGrayConfig()
	})
	return c, imgEC, imgRep
}

// slow10x is the canonical gray fault: the device answers, ten times slower.
func slow10x() core.OSDDegradation {
	return core.OSDDegradation{Device: ssd.Degradation{LatencyMultiplier: 10}}
}

func grayScenarioDigest(t *testing.T, codecConc int) string {
	t.Helper()
	c, imgEC, imgRep := grayScenarioCluster(t, true, codecConc)
	imgEC.Prefill()
	imgRep.Prefill()
	obj0 := imgEC.ObjectName(0)
	victim := c.Pool("ec").ActingSet(obj0)[0]
	res, err := NewScenario(c).
		AddJob(imgEC, Job{
			Name: "ec-reader", Op: Read, Pattern: Random, BlockSize: 16 << 10,
			QueueDepth: 4, Duration: 900 * time.Millisecond, Seed: 51,
		}).
		AddJob(imgRep, Job{
			Name: "rep-reader", Op: Read, Pattern: Random, BlockSize: 8 << 10,
			QueueDepth: 2, Duration: 900 * time.Millisecond, Seed: 52,
		}).
		Phase("healthy", 300*time.Millisecond).
		Phase("gray", 300*time.Millisecond).
		Phase("recovered", 300*time.Millisecond).
		At(300*time.Millisecond, DegradeOSD(victim, slow10x())).
		At(600*time.Millisecond, RestoreOSDHealth(victim)).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range res.GrayOps {
		if op.Err != nil {
			t.Fatalf("gray op failed: %+v", op)
		}
	}
	if res.GrayMetrics == (core.GrayMetrics{}) {
		t.Fatalf("gray phase produced no tail-tolerance activity: %+v", res.GrayMetrics)
	}
	if res.PhaseGray[0] != (core.GrayMetrics{}) {
		t.Fatalf("healthy phase leaked gray activity: %+v", res.PhaseGray[0])
	}
	if res.GrayMetrics.Ejects == 0 {
		t.Fatalf("breaker never ejected the 10x-slow OSD: %+v", res.GrayMetrics)
	}
	kinds := map[string]int{}
	for _, ev := range res.Events {
		kinds[ev.Kind]++
	}
	for _, k := range []string{"osd-degrade", "osd-slow", "osd-eject", "osd-restore", "osd-probation", "osd-in"} {
		if kinds[k] == 0 {
			t.Fatalf("missing %q event: %v", k, kinds)
		}
	}
	if res.Jobs[0].Result.Errors != 0 || res.Jobs[1].Result.Errors != 0 {
		t.Fatalf("reads errored across the gray lifecycle: %+v", res)
	}
	e := c.Engine()
	e.Drain()

	var post int64
	e.RunProc("post-drain", func(p *sim.Proc) {
		data, err := imgEC.Read(p, 0, 8<<10)
		if err != nil {
			t.Errorf("post-drain read: %v", err)
			return
		}
		post = int64(len(data)) + int64(p.Now())
	})

	sum := uint64(14695981039346656037)
	fold := func(s string) {
		for i := 0; i < len(s); i++ {
			sum ^= uint64(s[i])
			sum *= 1099511628211
		}
	}
	fold(fmt.Sprintf("%+v", res))
	fold(fmt.Sprintf("gray=%+v phases=%+v ops=%+v", res.GrayMetrics, res.PhaseGray, res.GrayOps))
	fold(fmt.Sprintf("post=%d", post))
	return fmt.Sprintf("%016x", sum)
}

// TestGrayScenarioGoldenDigest pins the degrade→eject→restore→readmit
// lifecycle byte-for-byte, across codec concurrency 1 vs 4.
func TestGrayScenarioGoldenDigest(t *testing.T) {
	for _, conc := range []int{1, 4} {
		if got := grayScenarioDigest(t, conc); got != goldenGrayScenarioDigest {
			t.Errorf("codec concurrency %d: gray scenario digest = %s, want golden %s",
				conc, got, goldenGrayScenarioDigest)
		}
	}
}

// TestScenarioRejectsGrayMisorder: scenario validation walks the event
// timeline and refuses gray events that cannot apply at that point —
// degrading an out OSD, restoring the health of a never-degraded OSD, and
// restore-health scheduled before the degrade.
func TestScenarioRejectsGrayMisorder(t *testing.T) {
	tiny := Job{
		Name: "bg", Op: Read, Pattern: Random, BlockSize: 4 << 10,
		QueueDepth: 1, Duration: 30 * time.Millisecond, Seed: 3,
	}

	c, imgEC, _ := grayScenarioCluster(t, false, 1)
	imgEC.Prefill()
	_, err := NewScenario(c).
		AddJob(imgEC, tiny).
		At(10*time.Millisecond, FailOSD(2)).
		At(20*time.Millisecond, DegradeOSD(2, slow10x())).
		Run()
	if err == nil || !strings.Contains(err.Error(), "is out") {
		t.Fatalf("degrading an out OSD: err = %v, want \"is out\"", err)
	}

	c2, img2, _ := grayScenarioCluster(t, false, 1)
	img2.Prefill()
	_, err = NewScenario(c2).
		AddJob(img2, tiny).
		At(10*time.Millisecond, RestoreOSDHealth(2)).
		Run()
	if err == nil || !strings.Contains(err.Error(), "is not degraded") {
		t.Fatalf("restoring health of a never-degraded OSD: err = %v, want \"is not degraded\"", err)
	}

	c3, img3, _ := grayScenarioCluster(t, false, 1)
	img3.Prefill()
	_, err = NewScenario(c3).
		AddJob(img3, tiny).
		At(20*time.Millisecond, DegradeOSD(2, slow10x())).
		At(10*time.Millisecond, RestoreOSDHealth(2)).
		Run()
	if err == nil || !strings.Contains(err.Error(), "is not degraded") {
		t.Fatalf("restore-health scheduled before the degrade: err = %v, want \"is not degraded\"", err)
	}

	c4, img4, _ := grayScenarioCluster(t, false, 1)
	img4.Prefill()
	_, err = NewScenario(c4).
		AddJob(img4, tiny).
		At(10*time.Millisecond, DegradeOSD(2, core.OSDDegradation{})).
		Run()
	if err == nil || !strings.Contains(err.Error(), "no active knobs") {
		t.Fatalf("no-op degradation: err = %v, want \"no active knobs\"", err)
	}

	// An OSD degraded before the scenario was built seeds the degraded set,
	// so restoring its health is valid; degrade→restore in order is valid.
	c5, img5, _ := grayScenarioCluster(t, false, 1)
	img5.Prefill()
	if err := c5.DegradeOSD(2, slow10x()); err != nil {
		t.Fatal(err)
	}
	if _, err := NewScenario(c5).
		AddJob(img5, tiny).
		At(5*time.Millisecond, RestoreOSDHealth(2)).
		At(15*time.Millisecond, DegradeOSD(3, slow10x())).
		At(25*time.Millisecond, RestoreOSDHealth(3)).
		Run(); err != nil {
		t.Fatalf("valid degrade/restore timeline rejected: %v", err)
	}
}
