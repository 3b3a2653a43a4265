package core

import (
	"math/rand"
	"testing"
	"time"

	"ecarray/internal/sim"
)

// modelLoad is a warmed size-only cluster driven by 16 closed-loop clients
// issuing 4 KiB random ops of one kind to a prefilled image of 1 MiB
// objects. Its devices are small enough (one FTL mapping leaf) that warm-up
// wraps every written device's FTL, so first-touch mapping allocations are
// behind it, and the engine's worker pool and event queue are grown past
// the load's high water before it starts.
type modelLoad struct {
	e      *sim.Engine
	c      *Cluster
	img    *Image
	write  bool
	rng    *rand.Rand
	blocks int64 // 4 KiB blocks in the image
	budget int   // ops left in the current run
	body   func(*sim.Proc)
	err    error
}

const (
	modelClients = 16
	modelBlock   = 4 << 10
)

func newModelLoad(tb testing.TB, profile Profile, write, degraded bool) *modelLoad {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.CarryData = false
	cfg.PGsPerPool = 64
	cfg.ObjectSize = 1 << 20
	cfg.StripeCacheStripes = 4 // small, so EC reads fetch and evict
	cfg.DeviceCapacity = 4 << 20
	cfg.Store.WALRegion = 512 << 10
	cfg.Store.CacheBlocks = 256 // small, so the block cache fills and evicts
	e := sim.NewEngine()
	tb.Cleanup(e.Close)
	c, err := New(e, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.CreatePool("p", profile); err != nil {
		tb.Fatal(err)
	}
	img, err := c.CreateImage("p", "img", 8<<20)
	if err != nil {
		tb.Fatal(err)
	}
	img.Prefill()
	if degraded {
		// The primary of the first object: out, it moves every op on that
		// object's PG to the degraded path.
		c.MarkOSDOut(img.pool.ActingSet(img.ObjectName(0))[0])
	}
	c.Stop() // no heartbeats: Run returns once the clients are done
	for i := 0; i < 512; i++ {
		d := time.Duration(i) * 10 * time.Microsecond // past the calendar window too
		e.Go("prewarm", func(p *sim.Proc) { p.Sleep(d) })
	}
	e.Run()
	l := &modelLoad{e: e, c: c, img: img, write: write, rng: rand.New(rand.NewSource(1)), blocks: img.Size() / modelBlock}
	l.body = l.client
	// Writes warm longer: the pooled write fan-outs reach their high water
	// (one per client in its write phase) later than reads do theirs.
	warm := 3000
	if write {
		warm = 10000
	}
	l.run(tb, warm)
	for round := 0; write && !l.wrapped(); round++ {
		if round == 50 {
			tb.Fatal("warm-up did not wrap every written device's FTL")
		}
		l.run(tb, 1000)
	}
	return l
}

// wrapped reports whether every device that took writes has garbage
// collected a block, so each of its physical blocks has been programmed.
func (l *modelLoad) wrapped() bool {
	for _, o := range l.c.OSDs() {
		if st := o.Store.Device().Stats(); st.HostWriteOps > 0 && st.Erases == 0 {
			return false
		}
	}
	return true
}

// client issues ops until the shared budget is spent.
func (l *modelLoad) client(p *sim.Proc) {
	for l.budget > 0 && l.err == nil {
		l.budget--
		off := l.rng.Int63n(l.blocks) * modelBlock
		if l.write {
			l.err = l.img.Write(p, off, nil, modelBlock)
		} else {
			_, l.err = l.img.Read(p, off, modelBlock)
		}
	}
}

// run completes n more ops.
func (l *modelLoad) run(tb testing.TB, n int) {
	l.budget = n
	for i := 0; i < modelClients; i++ {
		l.e.GoNamed("client", "", i, l.body)
	}
	l.e.Run()
	if l.err != nil {
		tb.Fatal(l.err)
	}
}

var modelSchemes = []struct {
	key     string
	profile Profile
}{
	{"rep3", ProfileReplicated(3)},
	{"rs63", ProfileEC(6, 3)},
	{"rs104", ProfileEC(10, 4)},
}

// TestModelSteadyStateAllocs is the model-side allocation regression: once
// a cluster is warm, a 4 KiB random read or overwrite through core, netsim,
// store and ssd allocates nothing, for every scheme, healthy and with one
// OSD out. Each measured run is 100 ops, so one allocation per op — or per
// 100 — fails; the test only forgives what the runtime itself allocates now
// and then (an OS thread started while the machine is busy), less than one
// per run.
func TestModelSteadyStateAllocs(t *testing.T) {
	const runs, opsPerRun = 10, 100
	for _, sc := range modelSchemes {
		for _, write := range []bool{false, true} {
			for _, degraded := range []bool{false, true} {
				name := sc.key + map[bool]string{false: "/read", true: "/write"}[write] +
					map[bool]string{false: "/healthy", true: "/osd-out"}[degraded]
				t.Run(name, func(t *testing.T) {
					l := newModelLoad(t, sc.profile, write, degraded)
					if n := testing.AllocsPerRun(runs, func() { l.run(t, opsPerRun) }); n != 0 {
						t.Fatalf("%v allocations per %d ops, want 0", n, opsPerRun)
					}
				})
			}
		}
	}
}

// BenchmarkModelOp times one 4 KiB random op through the whole model on
// the warmed setup of TestModelSteadyStateAllocs (healthy cluster).
func BenchmarkModelOp(b *testing.B) {
	for _, sc := range modelSchemes {
		for _, op := range []string{"read", "write"} {
			b.Run(sc.key+"/"+op, func(b *testing.B) {
				l := newModelLoad(b, sc.profile, op == "write", false)
				b.ReportAllocs()
				b.ResetTimer()
				l.run(b, b.N)
			})
		}
	}
}
