package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ecarray/internal/sim"
	"ecarray/internal/ssd"
)

// grayConfig is smallConfig with the tail-tolerance knobs on.
func grayConfig(carry bool) Config {
	cfg := smallConfig(carry)
	cfg.Gray = DefaultGrayConfig()
	return cfg
}

// TestGrayTailTimeoutDiscardsSlowShard is the differential safety proof for
// the tail-tolerant EC read: the victim data shard's stored bytes are
// corrupted AND its device made pathologically slow. If the abandoned
// request's bytes ever reached the caller the read would return garbage; the
// deadline must instead discard them and serve the shard by reconstruction,
// returning exactly the written payload.
func TestGrayTailTimeoutDiscardsSlowShard(t *testing.T) {
	cfg := grayConfig(true)
	cfg.Gray.HedgeDelay = 0 // isolate the deadline mechanism
	e, c := newTestCluster(t, cfg)
	pl, _ := c.CreatePool("ec", ProfileEC(4, 2))
	img, _ := c.CreateImage("ec", "img", 8<<20)
	payload := pattern(120_000, 41)

	runOp(t, e, c, func(p *sim.Proc) {
		if err := img.Write(p, 0, payload, int64(len(payload))); err != nil {
			t.Error(err)
		}
	})

	// Victim: a non-primary data shard of the first object. Corrupt its
	// stored copy and slow its device two decades past the shard deadline.
	obj := img.ObjectName(0)
	pg := pl.pgOf(obj)
	victim := pg.shards[1]
	c.osds[victim].Store.Corrupt(obj, 0, pl.geom().shardSize)
	if err := c.DegradeOSD(victim, OSDDegradation{
		Device: ssd.Degradation{LatencyMultiplier: 1000},
	}); err != nil {
		t.Fatal(err)
	}

	runOp(t, e, c, func(p *sim.Proc) {
		got, err := img.Read(p, 0, int64(len(payload)))
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Error("tail read returned corrupt/stale bytes from the timed-out shard")
		}
	})
	gm := c.GrayMetrics()
	if gm.ShardTimeouts == 0 {
		t.Fatalf("slow shard never timed out: %+v", gm)
	}
	if h := c.OSDHealth(victim); h.Samples == 0 || h.Score == 1 {
		t.Fatalf("victim health untouched: %+v", h)
	}
}

// TestGrayHedgedReadWins isolates the hedging mechanism: deadlines off, so
// only the speculative extra request can rescue the read from the corrupted,
// pathologically slow victim shard. First-k-wins must discard the victim's
// bytes when it eventually answers.
func TestGrayHedgedReadWins(t *testing.T) {
	cfg := grayConfig(true)
	cfg.Gray.ShardTimeout = 0
	e, c := newTestCluster(t, cfg)
	pl, _ := c.CreatePool("ec", ProfileEC(4, 2))
	img, _ := c.CreateImage("ec", "img", 8<<20)
	payload := pattern(120_000, 77)

	runOp(t, e, c, func(p *sim.Proc) {
		if err := img.Write(p, 0, payload, int64(len(payload))); err != nil {
			t.Error(err)
		}
	})

	obj := img.ObjectName(0)
	pg := pl.pgOf(obj)
	victim := pg.shards[1]
	c.osds[victim].Store.Corrupt(obj, 0, pl.geom().shardSize)
	if err := c.DegradeOSD(victim, OSDDegradation{
		Device: ssd.Degradation{LatencyMultiplier: 1000},
	}); err != nil {
		t.Fatal(err)
	}

	runOp(t, e, c, func(p *sim.Proc) {
		got, err := img.Read(p, 0, int64(len(payload)))
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Error("hedged read returned the slow shard's corrupt bytes")
		}
	})
	gm := c.GrayMetrics()
	if gm.HedgesIssued == 0 || gm.HedgesWon == 0 {
		t.Fatalf("hedge never engaged: %+v", gm)
	}
}

// TestGrayReplicatedReadFailsOver exercises the need=1 tail path: with the
// primary replica degraded far past the deadline, the read must fail over to
// a secondary and still return the written bytes.
func TestGrayReplicatedReadFailsOver(t *testing.T) {
	cfg := grayConfig(true)
	cfg.Gray.HedgeDelay = 0 // isolate the deadline mechanism
	e, c := newTestCluster(t, cfg)
	pl, _ := c.CreatePool("data", ProfileReplicated(3))
	img, _ := c.CreateImage("data", "img", 8<<20)
	payload := pattern(100_000, 9)

	runOp(t, e, c, func(p *sim.Proc) {
		if err := img.Write(p, 0, payload, int64(len(payload))); err != nil {
			t.Error(err)
		}
	})

	obj := img.ObjectName(0)
	pg := pl.pgOf(obj)
	_, primID := pg.primary()
	if err := c.DegradeOSD(primID, OSDDegradation{
		Device: ssd.Degradation{LatencyMultiplier: 1000},
	}); err != nil {
		t.Fatal(err)
	}

	runOp(t, e, c, func(p *sim.Proc) {
		got, err := img.Read(p, 0, int64(len(payload)))
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Error("replicated tail read lost the data on failover")
		}
	})
	if gm := c.GrayMetrics(); gm.ShardTimeouts == 0 {
		t.Fatalf("degraded primary never timed out: %+v", gm)
	}
}

// TestInjectedDeviceErrorsFailOver pins what an injected device error means
// with the gray-failure knobs at zero: the faulted shard is counted and never
// served. The victim's stored bytes are corrupted too, so serving them would
// show. An EC read rebuilds the shard from a parity spare; a replicated read
// falls back to a secondary.
func TestInjectedDeviceErrorsFailOver(t *testing.T) {
	for _, prof := range []Profile{ProfileEC(4, 2), ProfileReplicated(3)} {
		t.Run(prof.String(), func(t *testing.T) {
			e, c := newTestCluster(t, smallConfig(true))
			pl, _ := c.CreatePool("data", prof)
			img, _ := c.CreateImage("data", "img", 8<<20)
			payload := pattern(100_000, 23)
			runOp(t, e, c, func(p *sim.Proc) {
				if err := img.Write(p, 0, payload, int64(len(payload))); err != nil {
					t.Error(err)
				}
			})

			// EC: a non-primary data shard. Replicated: the primary, the
			// only copy a healthy read touches.
			obj := img.ObjectName(0)
			pg := pl.pgOf(obj)
			victim := pg.shards[1]
			if !prof.IsEC() {
				_, victim = pg.primary()
			}
			c.osds[victim].Store.Corrupt(obj, 0, int64(len(payload)))
			if err := c.DegradeOSD(victim, OSDDegradation{Device: ssd.Degradation{ErrorProb: 1}}); err != nil {
				t.Fatal(err)
			}

			runOp(t, e, c, func(p *sim.Proc) {
				got, err := img.Read(p, 0, int64(len(payload)))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, payload) {
					t.Error("read served the faulted shard's bytes")
				}
			})
			if gm := c.GrayMetrics(); gm.ShardFaults == 0 {
				t.Fatalf("injected errors not counted: %+v", gm)
			}
		})
	}
}

// TestGrayBreakerEjectsAndReadmits drives the full lifecycle: sustained slow
// service flags the OSD (osd-slow), the breaker ejects it into the
// MarkOSDOut lifecycle (osd-eject), RestoreOSDHealth re-admits it through
// probation, and the tracker comes back clean.
func TestGrayBreakerEjectsAndReadmits(t *testing.T) {
	cfg := grayConfig(false)
	cfg.StripeCacheStripes = 0 // every read must touch the shards
	e, c := newTestCluster(t, cfg)
	pl, _ := c.CreatePool("ec", ProfileEC(4, 2))

	var kinds []string
	c.SetEventHook(func(ev ClusterEvent) { kinds = append(kinds, ev.Kind) })

	// Prefill objects and find ones whose PG includes the victim.
	const victim = 5
	var victimObjs []string
	for i := 0; len(victimObjs) < 8 && i < 256; i++ {
		obj := fmt.Sprintf("gray-obj-%d", i)
		for pos, id := range pl.pgOf(obj).shards {
			if id == victim && pos < 4 { // data shard position
				pl.PrefillObject(obj, 1<<20)
				victimObjs = append(victimObjs, obj)
				break
			}
		}
	}
	if len(victimObjs) < 8 {
		t.Fatal("could not find enough objects on the victim")
	}

	if err := c.DegradeOSD(victim, OSDDegradation{
		Device: ssd.Degradation{LatencyMultiplier: 50},
	}); err != nil {
		t.Fatal(err)
	}

	runOp(t, e, c, func(p *sim.Proc) {
		for round := 0; round < 8; round++ {
			for _, obj := range victimObjs {
				if !c.osds[victim].up {
					return // breaker tripped
				}
				if _, err := pl.ReadObject(p, obj, 0, 64<<10); err != nil {
					t.Error(err)
					return
				}
			}
		}
	})

	if c.osds[victim].up {
		t.Fatalf("breaker never ejected the victim: health %+v, gray %+v",
			c.OSDHealth(victim), c.GrayMetrics())
	}
	if gm := c.GrayMetrics(); gm.Ejects != 1 {
		t.Fatalf("ejects = %d, want 1 (%+v)", gm.Ejects, gm)
	}
	sawSlow, sawEject := false, false
	for _, k := range kinds {
		switch k {
		case "osd-slow":
			sawSlow = true
		case "osd-eject":
			sawEject = true
		}
	}
	if !sawSlow || !sawEject {
		t.Fatalf("missing breaker events (slow=%v eject=%v): %v", sawSlow, sawEject, kinds)
	}

	// Restore: the eject means re-admission waits out probation.
	if err := c.RestoreOSDHealth(victim); err != nil {
		t.Fatal(err)
	}
	if c.osds[victim].up {
		t.Fatal("victim re-admitted before probation expired")
	}
	runOp(t, e, c, func(p *sim.Proc) { p.Sleep(2 * cfg.Gray.Probation) })
	if !c.osds[victim].up {
		t.Fatal("victim not re-admitted after probation")
	}
	if gm := c.GrayMetrics(); gm.Readmits != 1 {
		t.Fatalf("readmits = %d, want 1", gm.Readmits)
	}
	if h := c.OSDHealth(victim); h.Ejected || h.Slow || h.Samples != 0 {
		t.Fatalf("tracker not reset after readmit: %+v", h)
	}
	sawProb := false
	for _, k := range kinds {
		if k == "osd-probation" {
			sawProb = true
		}
	}
	if !sawProb {
		t.Fatalf("missing osd-probation event: %v", kinds)
	}
}

// TestGrayInjectionValidation covers the DegradeOSD/RestoreOSDHealth error
// surface: unknown OSDs, degrade of an out OSD (fail-stop and gray are
// distinct states), restore of a never-degraded OSD, bad knobs.
func TestGrayInjectionValidation(t *testing.T) {
	_, c := newTestCluster(t, grayConfig(false))
	if err := c.DegradeOSD(-1, OSDDegradation{}); err == nil {
		t.Error("DegradeOSD(-1) must fail")
	}
	if err := c.DegradeOSD(len(c.osds), OSDDegradation{}); err == nil {
		t.Error("DegradeOSD(out of range) must fail")
	}
	c.MarkOSDOut(3)
	if err := c.DegradeOSD(3, OSDDegradation{}); err == nil {
		t.Error("degrading an out OSD must fail")
	}
	if err := c.DegradeOSD(4, OSDDegradation{NetLatencyMultiplier: -1}); err == nil {
		t.Error("negative net multiplier must fail")
	}
	if err := c.DegradeOSD(4, OSDDegradation{Device: ssd.Degradation{ErrorProb: 2}}); err == nil {
		t.Error("bad device knobs must fail")
	}
	if err := c.RestoreOSDHealth(4); err == nil {
		t.Error("restoring a never-degraded OSD must fail")
	}
	if err := c.RestoreOSDHealth(len(c.osds)); err == nil {
		t.Error("RestoreOSDHealth(out of range) must fail")
	}
	if err := c.DegradeOSD(4, OSDDegradation{Device: ssd.Degradation{LatencyMultiplier: 4}}); err != nil {
		t.Fatal(err)
	}
	if h := c.OSDHealth(4); !h.Degraded {
		t.Error("OSDHealth must report active degradation")
	}
	if err := c.RestoreOSDHealth(4); err != nil {
		t.Fatal(err)
	}
	if h := c.OSDHealth(4); h.Degraded {
		t.Error("OSDHealth must clear after restore")
	}
}

// TestGrayConfigValidation covers the GrayConfig knob validation.
func TestGrayConfigValidation(t *testing.T) {
	bad := []func(*GrayConfig){
		func(g *GrayConfig) { g.ShardTimeout = -1 },
		func(g *GrayConfig) { g.ShardRetries = -1 },
		func(g *GrayConfig) { g.HedgeDelay = -time.Microsecond },
		func(g *GrayConfig) { g.Probation = -time.Second },
		func(g *GrayConfig) { g.HealthAlpha = 1.5 },
		func(g *GrayConfig) { g.ErrorThreshold = -0.1 },
		func(g *GrayConfig) { g.EjectAfter = -2 },
		func(g *GrayConfig) { g.ShardRetries = 3; g.RetryBackoff = 0 },
	}
	for i, tweak := range bad {
		cfg := smallConfig(false)
		cfg.Gray = DefaultGrayConfig()
		tweak(&cfg.Gray)
		if _, err := New(sim.NewEngine(), cfg); err == nil {
			t.Errorf("bad gray config %d accepted", i)
		}
	}
}

// TestGrayDeterminism: the same seed and fault schedule must produce
// identical tail-tolerance outcomes and metrics.
func TestGrayDeterminism(t *testing.T) {
	run := func() (GrayMetrics, Metrics) {
		e, c := newTestCluster(t, grayConfig(false))
		pl, _ := c.CreatePool("ec", ProfileEC(4, 2))
		for i := 0; i < 16; i++ {
			pl.PrefillObject(fmt.Sprintf("det-%d", i), 1<<20)
		}
		if err := c.DegradeOSD(7, OSDDegradation{
			Device: ssd.Degradation{LatencyMultiplier: 20, ErrorProb: 0.3, StuckProb: 0.05, StuckDelay: 20 * time.Millisecond},
		}); err != nil {
			t.Fatal(err)
		}
		runOp(t, e, c, func(p *sim.Proc) {
			for round := 0; round < 4; round++ {
				for i := 0; i < 16; i++ {
					if _, err := pl.ReadObject(p, fmt.Sprintf("det-%d", i), 0, 256<<10); err != nil {
						t.Error(err)
						return
					}
				}
			}
		})
		return c.GrayMetrics(), c.Metrics()
	}
	g1, m1 := run()
	g2, m2 := run()
	if g1 != g2 {
		t.Fatalf("gray metrics diverged:\n%+v\n%+v", g1, g2)
	}
	if m1 != m2 {
		t.Fatalf("cluster metrics diverged:\n%+v\n%+v", m1, m2)
	}
}
