package store

import (
	"bytes"
	"testing"

	"ecarray/internal/sim"
	"ecarray/internal/ssd"
)

const testDevCap = 512 << 20 // 512 MiB

// Write stores length bytes at off within the object, creating it if
// needed, holding p through the op's stages. data may be nil (zero-fill
// semantics in data-carrying mode).
func (s *Store) Write(p *sim.Proc, name string, off int64, data []byte, length int64) {
	var op Op
	s.WriteOp(&op, name, off, data, length)
	for st, ok := op.Next(); ok; st, ok = op.Next() {
		p.Hold(st)
	}
}

// newEngine returns an engine that is closed when the test ends, so its
// pooled workers do not outlive it.
func newEngine(tb testing.TB) *sim.Engine {
	e := sim.NewEngine()
	tb.Cleanup(e.Close)
	return e
}

func newStore(t *testing.T, e *sim.Engine, carry bool, tweak func(*Config)) *Store {
	t.Helper()
	scfg := ssd.DefaultConfig(testDevCap)
	scfg.CarryData = carry
	dev, err := ssd.New(e, "dev0", scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if tweak != nil {
		tweak(&cfg)
	}
	st, err := New(e, dev, cfg, carry)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func run(t *testing.T, e *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	e.Go("test", fn)
	e.Run()
}

func TestConfigValidation(t *testing.T) {
	e := newEngine(t)
	dev, _ := ssd.New(e, "d", ssd.DefaultConfig(testDevCap))
	bad := []Config{
		{MinAlloc: 0, BlockSize: 4096},
		{MinAlloc: 6000, BlockSize: 4096},
		{MinAlloc: 16384, BlockSize: 4096, DeferredThreshold: -1},
		{MinAlloc: 16384, BlockSize: 4096, WALRegion: 100},
		{MinAlloc: 16384, BlockSize: 4096, CacheBlocks: -1},
	}
	for i, cfg := range bad {
		if _, err := New(e, dev, cfg, false); err == nil {
			t.Errorf("config %d must be rejected", i)
		}
	}
	huge := DefaultConfig()
	huge.WALRegion = testDevCap
	if _, err := New(e, dev, huge, false); err == nil {
		t.Error("oversized WAL region must be rejected")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	e := newEngine(t)
	st := newStore(t, e, true, nil)
	run(t, e, func(p *sim.Proc) {
		payload := []byte("object store payload 123")
		st.Write(p, "obj.a", 100, payload, int64(len(payload)))
		got := st.Read(p, "obj.a", 100, int64(len(payload)))
		if !bytes.Equal(got, payload) {
			t.Errorf("round trip = %q", got)
		}
	})
	if !st.Exists("obj.a") || st.Objects() != 1 {
		t.Fatal("object bookkeeping wrong")
	}
	if o := st.objs["obj.a"]; o == nil || o.size != 124 {
		t.Fatalf("object = %+v, want size 124", o)
	}
}

func TestReadHolesAndMissing(t *testing.T) {
	e := newEngine(t)
	st := newStore(t, e, true, nil)
	run(t, e, func(p *sim.Proc) {
		// Missing object: zeroes, no device I/O.
		before := st.Device().Stats().HostReadBytes
		got := st.Read(p, "nope", 0, 64)
		if !bytes.Equal(got, make([]byte, 64)) {
			t.Error("missing object must read zeroes")
		}
		// Sparse object: write far out, read the hole.
		st.Write(p, "sparse", 100_000, []byte{1}, 1)
		got = st.Read(p, "sparse", 0, 64)
		if !bytes.Equal(got, make([]byte, 64)) {
			t.Error("hole must read zeroes")
		}
		if st.Device().Stats().HostReadBytes != before {
			t.Error("hole reads must not hit the device")
		}
	})
}

func TestSubBlockWriteRMW(t *testing.T) {
	e := newEngine(t)
	st := newStore(t, e, false, func(c *Config) { c.DeferredThreshold = 0; c.CacheBlocks = 0 })
	run(t, e, func(p *sim.Proc) {
		st.Write(p, "o", 0, nil, 8192) // establish data
		before := st.Stats().RMWReads
		st.Write(p, "o", 1024, nil, 1024) // sub-block overwrite within block 0
		if st.Stats().RMWReads-before != 1 {
			t.Errorf("RMW reads = %d, want 1", st.Stats().RMWReads-before)
		}
		// Aligned full-block write: no RMW.
		before = st.Stats().RMWReads
		st.Write(p, "o", 4096, nil, 4096)
		if st.Stats().RMWReads != before {
			t.Error("aligned write must not RMW")
		}
	})
}

func TestFreshWriteNoRMW(t *testing.T) {
	e := newEngine(t)
	st := newStore(t, e, false, func(c *Config) { c.DeferredThreshold = 0 })
	run(t, e, func(p *sim.Proc) {
		st.Write(p, "o", 1000, nil, 100) // unaligned, but nothing written before
		if st.Stats().RMWReads != 0 {
			t.Errorf("fresh sub-block write must not RMW (got %d)", st.Stats().RMWReads)
		}
	})
}

func TestDeferredWritesHitWAL(t *testing.T) {
	e := newEngine(t)
	st := newStore(t, e, false, nil) // threshold 32K
	run(t, e, func(p *sim.Proc) {
		st.Write(p, "o", 0, nil, 4096)
		if st.Stats().WALBytes == 0 {
			t.Error("4K write must be deferred through WAL")
		}
		walBefore := st.Stats().WALBytes
		st.Write(p, "o", 0, nil, 1<<20) // 1 MiB: direct
		if st.Stats().WALBytes != walBefore {
			t.Error("large write must bypass WAL")
		}
	})
}

func TestWALDoublesDeviceWrites(t *testing.T) {
	e := newEngine(t)
	st := newStore(t, e, false, func(c *Config) { c.MetaPerOp = 0 })
	run(t, e, func(p *sim.Proc) {
		for i := int64(0); i < 64; i++ {
			st.Write(p, "o", i*4096, nil, 4096)
		}
	})
	host := st.Device().Stats().HostWriteBytes
	logical := int64(64 * 4096)
	if host < 2*logical || host > 3*logical {
		t.Fatalf("deferred 4K writes: device bytes %d for %d logical, want ~2x", host, logical)
	}
}

func TestMetadataFlushes(t *testing.T) {
	e := newEngine(t)
	st := newStore(t, e, false, func(c *Config) { c.MetaPerOp = 512 })
	run(t, e, func(p *sim.Proc) {
		for i := int64(0); i < 16; i++ { // 16*512 = 8KB = 2 flushes
			st.Write(p, "o", i*65536, nil, 65536)
		}
	})
	if st.Stats().MetaBytes != 8192 {
		t.Fatalf("MetaBytes = %d, want 8192", st.Stats().MetaBytes)
	}
}

func TestBlockCacheAbsorbsRepeatReads(t *testing.T) {
	e := newEngine(t)
	st := newStore(t, e, false, nil)
	run(t, e, func(p *sim.Proc) {
		st.Write(p, "o", 0, nil, 4096)
		st.Read(p, "o", 0, 1024)
		devBefore := st.Device().Stats().HostReadBytes
		hitsBefore := st.Stats().CacheHits
		// Consecutive sub-block reads of the same block: cache hits, no
		// device reads (the paper's Fig 15a no-amplification behaviour).
		st.Read(p, "o", 1024, 1024)
		st.Read(p, "o", 2048, 1024)
		if st.Device().Stats().HostReadBytes != devBefore {
			t.Error("repeat reads must be served from cache")
		}
		if st.Stats().CacheHits-hitsBefore != 2 {
			t.Errorf("cache hits = %d, want 2", st.Stats().CacheHits-hitsBefore)
		}
	})
}

func TestWriteInvalidatesCache(t *testing.T) {
	e := newEngine(t)
	st := newStore(t, e, true, nil)
	run(t, e, func(p *sim.Proc) {
		st.Write(p, "o", 0, []byte("AAAA"), 4)
		if got := st.Read(p, "o", 0, 4); string(got) != "AAAA" {
			t.Fatalf("initial read %q", got)
		}
		st.Write(p, "o", 0, []byte("BBBB"), 4)
		if got := st.Read(p, "o", 0, 4); string(got) != "BBBB" {
			t.Errorf("read after overwrite = %q, want BBBB (stale cache?)", got)
		}
	})
}

func TestCacheEviction(t *testing.T) {
	e := newEngine(t)
	st := newStore(t, e, false, func(c *Config) { c.CacheBlocks = 4 })
	run(t, e, func(p *sim.Proc) {
		st.Write(p, "o", 0, nil, 64*4096)
		for i := int64(0); i < 16; i++ {
			st.Read(p, "o", i*4096, 4096)
		}
		// Re-reading the first block must miss (evicted).
		missBefore := st.Stats().CacheMisses
		st.Read(p, "o", 0, 4096)
		if st.Stats().CacheMisses != missBefore+1 {
			t.Error("expected eviction-driven miss")
		}
	})
}

func TestLargeWriteSpansUnits(t *testing.T) {
	e := newEngine(t)
	st := newStore(t, e, true, nil)
	payload := make([]byte, 300_000) // spans many 16K units
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	run(t, e, func(p *sim.Proc) {
		st.Write(p, "big", 0, payload, int64(len(payload)))
		got := st.Read(p, "big", 0, int64(len(payload)))
		if !bytes.Equal(got, payload) {
			t.Error("multi-unit round trip failed")
		}
		// Unaligned read crossing unit boundaries.
		got = st.Read(p, "big", 16380, 40)
		if !bytes.Equal(got, payload[16380:16420]) {
			t.Error("unaligned cross-unit read failed")
		}
	})
}

func TestStatsAndReset(t *testing.T) {
	e := newEngine(t)
	st := newStore(t, e, false, nil)
	run(t, e, func(p *sim.Proc) {
		st.Write(p, "o", 0, nil, 4096)
		st.Read(p, "o", 0, 4096)
	})
	s := st.Stats()
	if s.WriteOps != 1 || s.ReadOps != 1 || s.ObjectsMade != 1 {
		t.Fatalf("stats %+v", s)
	}
	st.ResetStats()
	if st.Stats().WriteOps != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestInvalidRangesPanic(t *testing.T) {
	cases := map[string]func(st *Store, p *sim.Proc){
		"neg write off":  func(st *Store, p *sim.Proc) { st.Write(p, "o", -1, nil, 4) },
		"zero write len": func(st *Store, p *sim.Proc) { st.Write(p, "o", 0, nil, 0) },
		"bad data len":   func(st *Store, p *sim.Proc) { st.Write(p, "o", 0, []byte{1}, 4) },
		"neg read off":   func(st *Store, p *sim.Proc) { st.Read(p, "o", -1, 4) },
		"zero read len":  func(st *Store, p *sim.Proc) { st.Read(p, "o", 0, 0) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			e := newEngine(t)
			st := newStore(t, e, false, nil)
			e.Go("t", func(p *sim.Proc) { fn(st, p) })
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			e.Run()
		})
	}
}

func TestWALWrapAround(t *testing.T) {
	e := newEngine(t)
	st := newStore(t, e, false, func(c *Config) { c.WALRegion = 64 << 10 }) // tiny WAL
	run(t, e, func(p *sim.Proc) {
		for i := int64(0); i < 64; i++ {
			st.Write(p, "o", i*4096, nil, 4096) // wraps several times
		}
	})
	if st.Stats().WALBytes == 0 {
		t.Fatal("WAL must be used")
	}
	if err := st.Device().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
