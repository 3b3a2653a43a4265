package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ecarray/internal/sim"
)

// smallConfig returns a tiny cluster suitable for functional tests.
func smallConfig(carry bool) Config {
	cfg := DefaultConfig()
	cfg.DeviceCapacity = 2 << 30
	cfg.PGsPerPool = 32
	cfg.ObjectSize = 1 << 20 // 1 MiB objects keep carry-mode tests fast
	cfg.CarryData = carry
	cfg.Store.WALRegion = 16 << 20
	return cfg
}

func newTestCluster(t *testing.T, cfg Config) (*sim.Engine, *Cluster) {
	t.Helper()
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	c, err := New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, c
}

// runOp executes fn as a simulation process and drives the engine until all
// work completes, then stops background daemons.
func runOp(t *testing.T, e *sim.Engine, c *Cluster, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	e.Go("test", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	c.Stop()
	e.Run()
	if !done {
		t.Fatal("test process did not complete")
	}
}

func pattern(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*31 + seed
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.StorageNodes = 0 },
		func(c *Config) { c.OSDsPerNode = 0 },
		func(c *Config) { c.CoresPerStorageNode = 0 },
		func(c *Config) { c.PGsPerPool = 0 },
		func(c *Config) { c.ObjectSize = 0 },
		func(c *Config) { c.ObjectSize = 4<<20 + 1 },
		func(c *Config) { c.OSDWorkers = 0 },
		func(c *Config) { c.DeviceCapacity = 0 },
		func(c *Config) { c.Cost.HeartbeatInterval = 0 },
	}
	for i, tweak := range bad {
		cfg := DefaultConfig()
		tweak(&cfg)
		if _, err := New(sim.NewEngine(), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestProfiles(t *testing.T) {
	if ProfileReplicated(3).String() != "3-Rep" || ProfileReplicated(3).Width() != 3 {
		t.Fatal("replicated profile wrong")
	}
	p := ProfileEC(6, 3)
	if p.String() != "RS(6,3)" || p.Width() != 9 || !p.IsEC() {
		t.Fatal("EC profile wrong")
	}
	if err := (Profile{Replicas: 3, K: 6, M: 3}).validate(); err == nil {
		t.Fatal("mixed profile must be invalid")
	}
	if err := (Profile{}).validate(); err == nil {
		t.Fatal("empty profile must be invalid")
	}
	if err := (Profile{K: 6}).validate(); err == nil {
		t.Fatal("EC profile without m must be invalid")
	}
}

func TestCreatePool(t *testing.T) {
	_, c := newTestCluster(t, smallConfig(false))
	pl, err := c.CreatePool("data", ProfileReplicated(3))
	if err != nil {
		t.Fatal(err)
	}
	if pl.PGs() != 32 || pl.Name() != "data" {
		t.Fatal("pool shape wrong")
	}
	if _, err := c.CreatePool("data", ProfileReplicated(3)); err == nil {
		t.Fatal("duplicate pool must fail")
	}
	if _, err := c.CreatePool("wide", ProfileEC(20, 10)); err == nil {
		t.Fatal("profile wider than cluster must fail")
	}
	if _, err := c.CreatePool("ec", ProfileEC(6, 3)); err != nil {
		t.Fatal(err)
	}
	if c.Pool("ec") == nil || c.Pool("zzz") != nil {
		t.Fatal("pool lookup wrong")
	}
}

func TestPGMappingProperties(t *testing.T) {
	_, c := newTestCluster(t, smallConfig(false))
	pl, _ := c.CreatePool("ec", ProfileEC(6, 3))
	for i := 0; i < 50; i++ {
		obj := fmt.Sprintf("obj-%d", i)
		set := pl.ActingSet(obj)
		if len(set) != 9 {
			t.Fatalf("acting set size %d, want 9", len(set))
		}
		seen := map[int]bool{}
		for _, osd := range set {
			if seen[osd] {
				t.Fatalf("duplicate OSD in acting set of %s", obj)
			}
			seen[osd] = true
		}
		if pl.PGFor(obj) != pl.PGFor(obj) {
			t.Fatal("PG mapping must be deterministic")
		}
	}
}

func TestReplicatedWriteReadRoundTrip(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(true))
	pl, _ := c.CreatePool("data", ProfileReplicated(3))
	img, err := c.CreateImage("data", "img", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := pattern(100_000, 7)
	runOp(t, e, c, func(p *sim.Proc) {
		if err := img.Write(p, 12345, payload, int64(len(payload))); err != nil {
			t.Error(err)
			return
		}
		got, err := img.Read(p, 12345, int64(len(payload)))
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Error("replicated round trip mismatch")
		}
	})
	_ = pl
}

func TestReplicatedCopiesOnAllReplicas(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(true))
	pl, _ := c.CreatePool("data", ProfileReplicated(3))
	obj := "explicit-object"
	payload := pattern(4096, 3)
	runOp(t, e, c, func(p *sim.Proc) {
		if err := pl.WriteObject(p, obj, 0, payload, 4096); err != nil {
			t.Error(err)
		}
	})
	for _, osdID := range pl.ActingSet(obj) {
		if !c.OSDs()[osdID].Store.Exists(obj) {
			t.Fatalf("replica missing on osd %d", osdID)
		}
	}
}

func TestECWriteReadRoundTrip(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(true))
	_, err := c.CreatePool("ec", ProfileEC(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	img, _ := c.CreateImage("ec", "img", 8<<20)
	payload := pattern(200_000, 11)
	runOp(t, e, c, func(p *sim.Proc) {
		// Unaligned offset: exercises sub-stripe RMW.
		if err := img.Write(p, 5000, payload, int64(len(payload))); err != nil {
			t.Error(err)
			return
		}
		got, err := img.Read(p, 5000, int64(len(payload)))
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Error("EC round trip mismatch")
		}
		// Overwrite part of it and re-read (parity regeneration path).
		over := pattern(10_000, 99)
		if err := img.Write(p, 8000, over, int64(len(over))); err != nil {
			t.Error(err)
			return
		}
		got, err = img.Read(p, 8000, int64(len(over)))
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, over) {
			t.Error("EC overwrite round trip mismatch")
		}
	})
}

func TestECCrossObjectWrite(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(true))
	c.CreatePool("ec", ProfileEC(4, 2)) //nolint:errcheck
	img, _ := c.CreateImage("ec", "img", 4<<20)
	objSize := c.Config().ObjectSize
	payload := pattern(int(objSize/2), 42)
	runOp(t, e, c, func(p *sim.Proc) {
		off := objSize - int64(len(payload))/2 // straddles object 0/1 boundary
		if err := img.Write(p, off, payload, int64(len(payload))); err != nil {
			t.Error(err)
			return
		}
		got, err := img.Read(p, off, int64(len(payload)))
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Error("cross-object EC round trip mismatch")
		}
	})
}

func TestECDegradedReadReconstructs(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(true))
	pl, _ := c.CreatePool("ec", ProfileEC(6, 3))
	img, _ := c.CreateImage("ec", "img", 8<<20)
	payload := pattern(150_000, 23)

	runOp(t, e, c, func(p *sim.Proc) {
		if err := img.Write(p, 0, payload, int64(len(payload))); err != nil {
			t.Error(err)
		}
	})

	// Fail up to m OSDs that hold shards of the first object.
	obj := img.ObjectName(0)
	acting := pl.ActingSet(obj)
	for _, osd := range acting[:3] {
		c.MarkOSDOut(osd)
	}

	e2 := e
	runOp(t, e2, c, func(p *sim.Proc) {
		got, err := img.Read(p, 0, int64(len(payload)))
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Error("degraded read did not reconstruct the data")
		}
	})

	// A fourth failure exceeds m: reads must now fail.
	c.MarkOSDOut(pl.ActingSet(obj)[0])
	live := 0
	for _, o := range c.OSDs() {
		if o.Up() {
			live++
		}
	}
	if live != len(c.OSDs())-4 {
		t.Fatalf("expected 4 OSDs out, got %d", len(c.OSDs())-live)
	}
	runOp(t, e, c, func(p *sim.Proc) {
		if _, err := img.Read(p, 0, int64(len(payload))); err == nil {
			t.Error("read with k+m-4 < k live shards must fail")
		}
	})
}

func TestECObjectInitOnce(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(false))
	pl, _ := c.CreatePool("ec", ProfileEC(6, 3))
	obj := "init-test-object"
	g := pl.geom()

	runOp(t, e, c, func(p *sim.Proc) {
		if err := pl.WriteObject(p, obj, 0, nil, 4096); err != nil {
			t.Error(err)
		}
	})
	m1 := c.Metrics()
	// Init writes k+m full shards plus the stripe write itself.
	wantInit := int64(9) * g.shardSize
	if m1.DeviceWriteBytes < wantInit {
		t.Fatalf("first EC write wrote %d device bytes, want >= %d (object init)",
			m1.DeviceWriteBytes, wantInit)
	}

	c.ResetMetrics()
	runOp(t, e, c, func(p *sim.Proc) {
		if err := pl.WriteObject(p, obj, 8192, nil, 4096); err != nil {
			t.Error(err)
		}
	})
	m2 := c.Metrics()
	if m2.DeviceWriteBytes >= wantInit {
		t.Fatalf("second EC write re-initialized the object (%d device bytes)", m2.DeviceWriteBytes)
	}
	if m2.DeviceWriteBytes == 0 {
		t.Fatal("second write wrote nothing")
	}
}

func TestECWriteRewritesWholeStripes(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(false))
	pl, _ := c.CreatePool("ec", ProfileEC(6, 3))
	obj := "stripe-amp-object"
	runOp(t, e, c, func(p *sim.Proc) {
		pl.WriteObject(p, obj, 0, nil, 4096) //nolint:errcheck
	})
	c.ResetMetrics()
	runOp(t, e, c, func(p *sim.Proc) {
		// 4KB sub-stripe write into an initialized object.
		if err := pl.WriteObject(p, obj, 24*1024, nil, 4096); err != nil {
			t.Error(err)
		}
	})
	m := c.Metrics()
	// Write phase touches k+m=9 chunks of 4KB (36KB) plus WAL/meta; read
	// phase reads the k=6 old chunks (some cached? none — fresh metrics).
	if m.DeviceWriteBytes < 36<<10 {
		t.Fatalf("sub-stripe write device bytes = %d, want >= 36KB (whole stripe)", m.DeviceWriteBytes)
	}
	if m.DeviceReadBytes < 20<<10 {
		t.Fatalf("sub-stripe write device reads = %d, want >= 20KB (old chunks)", m.DeviceReadBytes)
	}
}

func TestECFullStripeWriteSkipsReadPhase(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(false))
	pl, _ := c.CreatePool("ec", ProfileEC(6, 3))
	obj := "full-stripe-object"
	stripeWidth := int64(6 * 4096)
	runOp(t, e, c, func(p *sim.Proc) {
		pl.WriteObject(p, obj, 0, nil, stripeWidth) //nolint:errcheck
	})
	c.ResetMetrics()
	runOp(t, e, c, func(p *sim.Proc) {
		if err := pl.WriteObject(p, obj, stripeWidth, nil, stripeWidth); err != nil {
			t.Error(err)
		}
	})
	if m := c.Metrics(); m.DeviceReadBytes != 0 {
		t.Fatalf("full-stripe write read %d device bytes, want 0", m.DeviceReadBytes)
	}
}

func TestStripeCacheServesSequentialReads(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(false))
	pl, _ := c.CreatePool("ec", ProfileEC(6, 3))
	img, _ := c.CreateImage("ec", "img", 8<<20)
	img.Prefill()
	c.ResetMetrics()
	runOp(t, e, c, func(p *sim.Proc) {
		// Six sequential 4KB reads: one stripe fetch (24KB), five cache hits.
		for i := int64(0); i < 6; i++ {
			if _, err := img.Read(p, i*4096, 4096); err != nil {
				t.Error(err)
				return
			}
		}
	})
	m := c.Metrics()
	if m.DeviceReadBytes > 24<<10 {
		t.Fatalf("sequential EC reads hit devices for %d bytes, want <= 24KB (one stripe)", m.DeviceReadBytes)
	}
	_ = pl
}

// TestStripeCacheDropForgetsOrder: a dropped key must also leave the FIFO
// order, or its stale slot later evicts a live re-insertion of that key.
func TestStripeCacheDropForgetsOrder(t *testing.T) {
	sc := newStripeCache(2)
	a, b := stripeKey{"obj", 0}, stripeKey{"obj", 1}
	sc.put(a, nil)
	sc.drop(a)
	sc.put(a, nil)
	sc.put(b, nil)
	if _, ok := sc.get(a); !ok {
		t.Fatal("re-inserted key evicted by its dropped slot")
	}
}

// TestECReadEventCount pins the engine events one RS(6,3) 4 KiB read costs
// with the gray-failure knobs at zero: the k shard fetches wake the reader
// once, when the k-th lands, not once per completion.
func TestECReadEventCount(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(false))
	c.CreatePool("ec", ProfileEC(6, 3)) //nolint:errcheck
	img, _ := c.CreateImage("ec", "img", 8<<20)
	img.Prefill()
	before := e.Executed()
	runOp(t, e, c, func(p *sim.Proc) {
		if _, err := img.Read(p, 1<<20, 4096); err != nil {
			t.Error(err)
		}
	})
	const want = 107
	if got := e.Executed() - before; got != want {
		t.Fatalf("RS(6,3) 4 KiB read took %d engine events, want %d", got, want)
	}
}

func TestHeartbeatTraffic(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(false))
	e.RunUntil(e.Now() + sim.Time(61*time.Second))
	priv := c.PrivateNetwork().Bytes()
	if priv == 0 {
		t.Fatal("no heartbeat traffic on private network")
	}
	// ~20KB/s ballpark (paper §VI-B); assert within a loose band.
	rate := float64(priv) / 61
	if rate < 2_000 || rate > 200_000 {
		t.Fatalf("heartbeat rate %.0f B/s outside plausible band", rate)
	}
	c.Stop()
	e.Run()
}

func TestMetricsWindowAndReset(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(false))
	pl, _ := c.CreatePool("data", ProfileReplicated(3))
	runOp(t, e, c, func(p *sim.Proc) {
		pl.WriteObject(p, "o", 0, nil, 65536) //nolint:errcheck
	})
	m := c.Metrics()
	if m.DeviceWriteBytes < 3*65536 {
		t.Fatalf("3-rep write device bytes = %d, want >= 3x data", m.DeviceWriteBytes)
	}
	if m.PrivateBytes < 2*65536 {
		t.Fatalf("3-rep write private bytes = %d, want >= 2x data", m.PrivateBytes)
	}
	if m.UserCPU <= 0 || m.ContextSwitches == 0 {
		t.Fatal("CPU accounting empty")
	}
	c.ResetMetrics()
	m = c.Metrics()
	if m.DeviceWriteBytes != 0 || m.PrivateBytes != 0 || m.ContextSwitches != 0 {
		t.Fatal("ResetMetrics did not clear counters")
	}
}

func TestReplicatedReadNoPrivateTraffic(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(false))
	pl, _ := c.CreatePool("data", ProfileReplicated(3))
	runOp(t, e, c, func(p *sim.Proc) {
		pl.WriteObject(p, "o", 0, nil, 65536) //nolint:errcheck
	})
	c.ResetMetrics()
	runOp(t, e, c, func(p *sim.Proc) {
		if _, err := pl.ReadObject(p, "o", 0, 65536); err != nil {
			t.Error(err)
		}
	})
	// Allow only heartbeat-scale traffic in the window.
	if m := c.Metrics(); m.PrivateBytes > 10_000 {
		t.Fatalf("replicated read produced %d private bytes, want ~0", m.PrivateBytes)
	}
}

func TestECReadPullsChunksOverPrivate(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(false))
	pl, _ := c.CreatePool("ec", ProfileEC(6, 3))
	img, _ := c.CreateImage("ec", "img", 8<<20)
	img.Prefill()
	c.ResetMetrics()
	runOp(t, e, c, func(p *sim.Proc) {
		if _, err := img.Read(p, 40<<10, 4096); err != nil { // random-ish single read
			t.Error(err)
		}
	})
	m := c.Metrics()
	// The stripe fetch moves most of k chunks over the private network
	// (minus any local/loopback shards).
	if m.PrivateBytes < 8<<10 {
		t.Fatalf("EC read private bytes = %d, want several chunks", m.PrivateBytes)
	}
	_ = pl
}

func TestImageValidation(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(false))
	if _, err := c.CreateImage("missing", "img", 1<<20); err == nil {
		t.Fatal("image on missing pool must fail")
	}
	c.CreatePool("data", ProfileReplicated(3)) //nolint:errcheck
	if _, err := c.CreateImage("data", "img", 0); err == nil {
		t.Fatal("zero-size image must fail")
	}
	img, _ := c.CreateImage("data", "img", 1<<20)
	runOp(t, e, c, func(p *sim.Proc) {
		if err := img.Write(p, 1<<20, nil, 1); err == nil {
			t.Error("out-of-range write must fail")
		}
		if _, err := img.Read(p, -1, 10); err == nil {
			t.Error("negative-offset read must fail")
		}
		if err := img.Write(p, 0, []byte{1, 2}, 3); err == nil {
			t.Error("data length mismatch must fail")
		}
	})
	if img.Objects() != 1 || img.Size() != 1<<20 {
		t.Fatal("image accessors wrong")
	}
	if img.ObjectName(0) == img.ObjectName(1) {
		t.Fatal("object names must differ per index")
	}
}

func TestGeometry(t *testing.T) {
	_, c := newTestCluster(t, smallConfig(false))
	pl, _ := c.CreatePool("ec", ProfileEC(6, 3))
	g := pl.geom()
	if g.stripeWidth != 24<<10 {
		t.Fatalf("stripe width = %d, want 24KB (paper §V)", g.stripeWidth)
	}
	// 1 MiB object / 24KB stripes = 42.67 -> 43 stripes, shard 172KB.
	if g.stripes != 43 || g.shardSize != 43*4096 {
		t.Fatalf("geom = %+v", g)
	}
	s0, s1 := g.stripeSpan(0, 4096)
	if s0 != 0 || s1 != 1 {
		t.Fatalf("stripeSpan(0,4K) = %d,%d", s0, s1)
	}
	s0, s1 = g.stripeSpan(20<<10, 8<<10) // crosses stripe 0/1 boundary
	if s0 != 0 || s1 != 2 {
		t.Fatalf("stripeSpan crossing = %d,%d", s0, s1)
	}
}

func TestMarkOSDInRestoresShards(t *testing.T) {
	_, c := newTestCluster(t, smallConfig(false))
	pl, _ := c.CreatePool("ec", ProfileEC(6, 3))
	obj := "restore-object"
	before := pl.ActingSet(obj)
	victim := before[2]
	c.MarkOSDOut(victim)
	if len(pl.ActingSet(obj)) != 8 {
		t.Fatalf("acting set after failure = %v", pl.ActingSet(obj))
	}
	c.MarkOSDIn(victim)
	after := pl.ActingSet(obj)
	if len(after) != 9 {
		t.Fatalf("acting set after restore = %v", after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("restore changed shard layout: %v vs %v", before, after)
		}
	}
}
