package ssd

import (
	"bytes"
	"testing"
	"time"

	"ecarray/internal/sim"
)

const testBlockBytes = 4096 * 256 // 1 MiB erase blocks

func testConfig(capacity int64) Config {
	cfg := DefaultConfig(capacity)
	cfg.CarryData = true
	return cfg
}

// newEngine returns an engine that is closed when the test ends, so its
// pooled workers do not outlive it.
func newEngine(tb testing.TB) *sim.Engine {
	e := sim.NewEngine()
	tb.Cleanup(e.Close)
	return e
}

// run executes fn as a simulation process and drives it to completion.
func run(t *testing.T, e *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	e.Go("test", fn)
	e.Run()
}

func TestConfigValidation(t *testing.T) {
	e := newEngine(t)
	bad := []Config{
		{},
		{Capacity: 12345, PageSize: 4096, PagesPerBlock: 256, OverProvision: 0.1, QueueDepth: 4, SeqReadFactor: 1},
		func() Config { c := DefaultConfig(testBlockBytes); c.OverProvision = 0; return c }(),
		func() Config { c := DefaultConfig(testBlockBytes); c.QueueDepth = 0; return c }(),
		func() Config { c := DefaultConfig(testBlockBytes); c.SeqReadFactor = 0; return c }(),
	}
	for i, cfg := range bad {
		if _, err := New(e, "bad", cfg); err == nil {
			t.Errorf("config %d must be rejected", i)
		}
	}
	if _, err := New(e, "ok", DefaultConfig(16*testBlockBytes)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	e := newEngine(t)
	d, err := New(e, "d0", testConfig(16*testBlockBytes))
	if err != nil {
		t.Fatal(err)
	}
	run(t, e, func(p *sim.Proc) {
		payload := []byte("hello flash world")
		d.Write(p, 10_000, payload, int64(len(payload)))
		got := d.Read(p, 10_000, int64(len(payload)))
		if !bytes.Equal(got, payload) {
			t.Errorf("round trip mismatch: %q", got)
		}
		// Unwritten range reads zeroes.
		z := d.Read(p, 5*testBlockBytes, 16)
		if !bytes.Equal(z, make([]byte, 16)) {
			t.Errorf("unwritten read = %v, want zeros", z)
		}
	})
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteVisible(t *testing.T) {
	e := newEngine(t)
	d, _ := New(e, "d0", testConfig(16*testBlockBytes))
	run(t, e, func(p *sim.Proc) {
		d.Write(p, 0, []byte("AAAA"), 4)
		d.Write(p, 0, []byte("BBBB"), 4)
		d.Write(p, 2, []byte("cc"), 2)
		got := d.Read(p, 0, 4)
		if string(got) != "BBcc" {
			t.Errorf("overwrite result %q, want BBcc", got)
		}
	})
}

func TestHostCountersAndOps(t *testing.T) {
	e := newEngine(t)
	cfg := DefaultConfig(16 * testBlockBytes)
	d, _ := New(e, "d0", cfg)
	run(t, e, func(p *sim.Proc) {
		d.Write(p, 0, nil, 8192)
		d.Read(p, 0, 4096)
	})
	st := d.Stats()
	if st.HostWriteBytes != 8192 || st.HostWriteOps != 1 {
		t.Fatalf("write counters %+v", st)
	}
	if st.HostReadBytes != 4096 || st.HostReadOps != 1 {
		t.Fatalf("read counters %+v", st)
	}
	d.ResetStats()
	if d.Stats().HostWriteBytes != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestSequentialWriteAmpNearOne(t *testing.T) {
	e := newEngine(t)
	cfg := DefaultConfig(64 * testBlockBytes)
	d, _ := New(e, "d0", cfg)
	run(t, e, func(p *sim.Proc) {
		// Write half the device sequentially in 64KB chunks, once.
		var off int64
		for off = 0; off < 32*testBlockBytes; off += 65536 {
			d.Write(p, off, nil, 65536)
		}
	})
	wa := d.Stats().WriteAmplification()
	if wa > 1.05 {
		t.Fatalf("sequential one-pass write amplification = %.3f, want ~1", wa)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomOverwriteAmplifiesWrites(t *testing.T) {
	e := newEngine(t)
	cfg := DefaultConfig(16 * testBlockBytes)
	cfg.OverProvision = 0.10
	d, _ := New(e, "d0", cfg)
	rng := sim.NewRand(1)
	run(t, e, func(p *sim.Proc) {
		// Fill the device, then overwrite random 4K pages many times to
		// force garbage collection with mixed-validity blocks.
		for off := int64(0); off < 16*testBlockBytes; off += 65536 {
			d.Write(p, off, nil, 65536)
		}
		for i := 0; i < 30000; i++ {
			page := rng.Int63n(16 * 256)
			d.Write(p, page*4096, nil, 4096)
		}
	})
	st := d.Stats()
	if st.Erases == 0 || st.GCMigratedPages == 0 {
		t.Fatalf("expected GC activity, got %+v", st)
	}
	if wa := st.WriteAmplification(); wa < 1.1 {
		t.Fatalf("random overwrite WA = %.3f, want > 1.1", wa)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSubPageRandomWriteCausesRMW(t *testing.T) {
	e := newEngine(t)
	cfg := DefaultConfig(16 * testBlockBytes)
	d, _ := New(e, "d0", cfg)
	run(t, e, func(p *sim.Proc) {
		d.Write(p, 0, nil, 4096) // map the page
		before := d.Stats().FlashReadBytes
		d.Write(p, 1024, nil, 512) // random sub-page overwrite
		if got := d.Stats().FlashReadBytes - before; got != 4096 {
			t.Errorf("sub-page overwrite flash read = %d, want 4096 (RMW)", got)
		}
	})
}

func TestSequentialSubPageWritesCoalesce(t *testing.T) {
	e := newEngine(t)
	cfg := DefaultConfig(16 * testBlockBytes)
	d, _ := New(e, "d0", cfg)
	run(t, e, func(p *sim.Proc) {
		// Pre-write the page so RMW would trigger if not sequential.
		d.Write(p, 0, nil, 8192)
		before := d.Stats().FlashReadBytes
		// Sequential 1KB stream: write-buffer merge, no internal RMW.
		d.lastWriteEnd = 0
		for off := int64(0); off < 8192; off += 1024 {
			d.Write(p, off, nil, 1024)
		}
		if got := d.Stats().FlashReadBytes - before; got != 0 {
			t.Errorf("sequential sub-page stream flash reads = %d, want 0", got)
		}
	})
}

func TestSequentialReadFasterThanRandom(t *testing.T) {
	timeFor := func(seqPattern bool) sim.Time {
		e := newEngine(t)
		cfg := DefaultConfig(64 * testBlockBytes)
		d, _ := New(e, "d0", cfg)
		e.Go("t", func(p *sim.Proc) {
			for off := int64(0); off < 64*testBlockBytes; off += 65536 {
				d.Write(p, off, nil, 65536)
			}
		})
		e.Run()
		start := e.Now()
		rng := sim.NewRand(2)
		e.Go("t", func(p *sim.Proc) {
			var off int64
			for i := 0; i < 2000; i++ {
				if seqPattern {
					off += 4096
				} else {
					off = rng.Int63n(64*256) * 4096
				}
				d.Read(p, off, 4096)
			}
		})
		e.Run()
		return e.Now() - start
	}
	seq, rnd := timeFor(true), timeFor(false)
	if float64(seq) > 0.8*float64(rnd) {
		t.Fatalf("sequential 4K reads (%v) should be much faster than random (%v)", seq, rnd)
	}
}

func TestQueueSerialization(t *testing.T) {
	// More concurrent requests than queue depth: the device must serialize
	// the excess, so total time exceeds one service time.
	e := newEngine(t)
	cfg := DefaultConfig(16 * testBlockBytes)
	cfg.QueueDepth = 2
	d, _ := New(e, "d0", cfg)
	for i := 0; i < 8; i++ {
		e.Go("w", func(p *sim.Proc) { d.Write(p, 0, nil, 4096) })
	}
	e.Run()
	svc := cfg.WriteBase + time.Duration(4096*int64(time.Second)/cfg.WriteBandwidth)
	// 8 ops over 2 slots: at least 4 serial waves.
	if e.Now() < sim.Time(4*svc) {
		t.Fatalf("duration %v too short for qd=2 with 8 ops (svc=%v)", e.Now(), svc)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	e := newEngine(t)
	d, _ := New(e, "d0", testConfig(16*testBlockBytes))
	for name, fn := range map[string]func(p *sim.Proc){
		"read past end":  func(p *sim.Proc) { d.Read(p, 16*testBlockBytes-1, 2) },
		"negative off":   func(p *sim.Proc) { d.Read(p, -1, 2) },
		"zero length":    func(p *sim.Proc) { d.Read(p, 0, 0) },
		"write past end": func(p *sim.Proc) { d.Write(p, 16*testBlockBytes, nil, 1) },
	} {
		e := newEngine(t)
		d2, _ := New(e, "d0", testConfig(16*testBlockBytes))
		_ = d
		e.Go(name, func(p *sim.Proc) { fn(p) })
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			_ = d2
			e.Run()
		}()
	}
}

func TestDataIntegrityUnderGC(t *testing.T) {
	// Property: after heavy random overwrites that force GC, every page
	// still reads back the last value written to it.
	e := newEngine(t)
	cfg := testConfig(8 * testBlockBytes)
	cfg.OverProvision = 0.15
	d, _ := New(e, "d0", cfg)
	rng := sim.NewRand(3)
	pages := int64(8 * 256)
	shadow := make(map[int64]byte)
	run(t, e, func(p *sim.Proc) {
		buf := make([]byte, 4096)
		for i := 0; i < 20000; i++ {
			pg := rng.Int63n(pages)
			v := byte(rng.Intn(256))
			for j := range buf {
				buf[j] = v
			}
			d.Write(p, pg*4096, buf, 4096)
			shadow[pg] = v
		}
		for pg, v := range shadow {
			got := d.Read(p, pg*4096, 4096)
			if got[0] != v || got[4095] != v {
				t.Errorf("page %d = %d, want %d", pg, got[0], v)
				return
			}
		}
	})
	if d.Stats().Erases == 0 {
		t.Fatal("test did not exercise GC")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAmpFormula(t *testing.T) {
	s := Stats{HostWriteBytes: 100, FlashWriteBytes: 250}
	if s.WriteAmplification() != 2.5 {
		t.Fatalf("WA = %v", s.WriteAmplification())
	}
	if (Stats{}).WriteAmplification() != 0 {
		t.Fatal("empty WA must be 0")
	}
}

func BenchmarkWrite4K(b *testing.B) {
	e := newEngine(b)
	cfg := DefaultConfig(256 * testBlockBytes)
	d, _ := New(e, "d0", cfg)
	rng := sim.NewRand(4)
	e.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			d.Write(p, rng.Int63n(256*256)*4096, nil, 4096)
		}
	})
	b.ResetTimer()
	e.Run()
}

func BenchmarkGCHeavyWorkload(b *testing.B) {
	e := newEngine(b)
	cfg := DefaultConfig(16 * testBlockBytes)
	cfg.OverProvision = 0.08
	d, _ := New(e, "d0", cfg)
	rng := sim.NewRand(5)
	e.Go("bench", func(p *sim.Proc) {
		for off := int64(0); off < 16*testBlockBytes; off += 65536 {
			d.Write(p, off, nil, 65536)
		}
		for i := 0; i < b.N; i++ {
			d.Write(p, rng.Int63n(16*256)*4096, nil, 4096)
		}
	})
	b.ResetTimer()
	e.Run()
}

var _ = time.Second // keep time imported for config literals in failures

// TestDegradationLatencyMultiplier: a degraded device serves the same
// request slower by exactly the multiplier; clearing restores it.
func TestDegradationLatencyMultiplier(t *testing.T) {
	e := newEngine(t)
	cfg := DefaultConfig(16 * testBlockBytes)
	d, _ := New(e, "d0", cfg)
	var healthy, slow, restored sim.Time
	run(t, e, func(p *sim.Proc) {
		t0 := p.Now()
		d.Read(p, 0, 4096)
		healthy = p.Now() - t0
		if err := d.SetDegradation(Degradation{LatencyMultiplier: 10}, nil); err != nil {
			t.Errorf("SetDegradation: %v", err)
		}
		t0 = p.Now()
		d.Read(p, 8192, 4096) // breaks the stream: same base latency as the first
		slow = p.Now() - t0
		d.ClearDegradation()
		t0 = p.Now()
		d.Read(p, 0, 4096) // breaks the stream again
		restored = p.Now() - t0
	})
	if slow != healthy*10 {
		t.Fatalf("degraded latency = %v, want 10 × %v", slow, healthy)
	}
	if restored != healthy {
		t.Fatalf("restored latency = %v, want %v", restored, healthy)
	}
}

// TestDegradationErrorAndStuck: probability-1 knobs make every request
// stuck and faulted; TakeFault reports-and-clears; the stuck delay lands
// in the service time.
func TestDegradationErrorAndStuck(t *testing.T) {
	e := newEngine(t)
	cfg := DefaultConfig(16 * testBlockBytes)
	d, _ := New(e, "d0", cfg)
	deg := Degradation{ErrorProb: 1, StuckProb: 1, StuckDelay: 50 * time.Millisecond}
	if err := d.SetDegradation(deg, nil); err == nil {
		t.Fatal("probabilistic degradation without an rng must be rejected")
	}
	if err := d.SetDegradation(deg, sim.NewRand(7)); err != nil {
		t.Fatal(err)
	}
	var took sim.Time
	run(t, e, func(p *sim.Proc) {
		t0 := p.Now()
		d.Read(p, 0, 4096)
		took = p.Now() - t0
	})
	if took < sim.Time(50*time.Millisecond) {
		t.Fatalf("stuck request served in %v, want >= 50ms hang", took)
	}
	if st := d.Stats(); st.InjectedFaults != 1 || st.StuckIOs != 1 {
		t.Fatalf("injection counters = %+v", st)
	}
	if !d.TakeFault() {
		t.Fatal("TakeFault must report the injected fault")
	}
	if d.TakeFault() {
		t.Fatal("TakeFault must clear the record")
	}
}

// TestDegradationValidation rejects out-of-range knobs.
func TestDegradationValidation(t *testing.T) {
	e := newEngine(t)
	d, _ := New(e, "d0", DefaultConfig(16*testBlockBytes))
	for _, deg := range []Degradation{
		{ErrorProb: 1.5},
		{StuckProb: -0.1},
		{LatencyMultiplier: -2},
		{StuckProb: 0.5}, // no StuckDelay
	} {
		if err := d.SetDegradation(deg, sim.NewRand(1)); err == nil {
			t.Errorf("degradation %+v must be rejected", deg)
		}
	}
}
