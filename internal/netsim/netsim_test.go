package netsim

import (
	"testing"
	"time"

	"ecarray/internal/sim"
)

// newEngine returns an engine that is closed when the test ends, so its
// pooled workers do not outlive it.
func newEngine(tb testing.TB) *sim.Engine {
	e := sim.NewEngine()
	tb.Cleanup(e.Close)
	return e
}

// Node indexes of testNet's "a", "b", "c" (and "d", when a test adds it).
const na, nb, nc, nd = 0, 1, 2, 3

func testNet(e *sim.Engine) *Network {
	n := New(e, Config{
		Name:            "test",
		Bandwidth:       1 << 30, // 1 GiB/s
		Latency:         10 * time.Microsecond,
		MsgOverhead:     0,
		LoopbackLatency: time.Microsecond,
	})
	for i, name := range []string{"a", "b", "c"} {
		if got := n.AddNode(name); got != i {
			panic("AddNode must return indexes in order of addition")
		}
	}
	return n
}

// send runs one message from node index from to node index to.
func send(p *sim.Proc, n *Network, from, to int, payload int64) {
	var b [3]sim.Stage
	p.Hold(n.Message(b[:0], from, to, payload)...)
}

func TestTransferTiming(t *testing.T) {
	e := newEngine(t)
	n := testNet(e)
	var done sim.Time
	e.Go("send", func(p *sim.Proc) {
		send(p, n, na, nb, 1<<20) // 1 MiB at 1 GiB/s ≈ 0.976ms per hop
		done = p.Now()
	})
	e.Run()
	ser := time.Duration((1 << 20) * int64(time.Second) / (1 << 30))
	want := sim.Time(2*ser + 10*time.Microsecond)
	if done != want {
		t.Fatalf("delivery at %v, want %v", done, want)
	}
}

func TestByteAccounting(t *testing.T) {
	e := newEngine(t)
	n := testNet(e)
	e.Go("send", func(p *sim.Proc) {
		send(p, n, na, nb, 1000)
		send(p, n, nb, nc, 500)
	})
	e.Run()
	if n.Bytes() != 1500 || n.Messages() != 2 {
		t.Fatalf("bytes=%d msgs=%d", n.Bytes(), n.Messages())
	}
	n.ResetStats()
	if n.Bytes() != 0 || n.Messages() != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestMsgOverheadCounted(t *testing.T) {
	e := newEngine(t)
	n := New(e, Config{Name: "x", Bandwidth: 1 << 30, MsgOverhead: 100})
	n.AddNode("a")
	n.AddNode("b")
	e.Go("send", func(p *sim.Proc) { send(p, n, na, nb, 1000) })
	e.Run()
	if n.Bytes() != 1100 {
		t.Fatalf("bytes=%d, want 1100 (payload+overhead)", n.Bytes())
	}
}

func TestLoopbackNotCounted(t *testing.T) {
	e := newEngine(t)
	n := testNet(e)
	var done sim.Time
	e.Go("send", func(p *sim.Proc) {
		send(p, n, na, na, 1<<20)
		done = p.Now()
	})
	e.Run()
	if n.Bytes() != 0 || n.Messages() != 0 {
		t.Fatal("loopback must not count as network traffic")
	}
	if n.LoopbackBytes() != 1<<20 {
		t.Fatalf("loopback bytes = %d", n.LoopbackBytes())
	}
	if done != sim.Time(time.Microsecond) {
		t.Fatalf("loopback delivery at %v, want 1µs", done)
	}
}

func TestSenderSerialization(t *testing.T) {
	// Two concurrent sends from the same node must serialize on its TX link.
	e := newEngine(t)
	n := testNet(e)
	var t1, t2 sim.Time
	e.Go("s1", func(p *sim.Proc) { send(p, n, na, nb, 1<<20); t1 = p.Now() })
	e.Go("s2", func(p *sim.Proc) { send(p, n, na, nc, 1<<20); t2 = p.Now() })
	e.Run()
	ser := sim.Time((1 << 20) * int64(time.Second) / (1 << 30))
	if t2 < 3*ser {
		t.Fatalf("second send finished at %v; TX serialization missing (ser=%v)", t2, ser)
	}
	if t1 >= t2 {
		t.Fatalf("sends must complete in order: %v, %v", t1, t2)
	}
}

func TestReceiverIncastContention(t *testing.T) {
	// Two senders to one receiver: RX side must serialize (the EC
	// RS-concatenation incast pattern).
	e := newEngine(t)
	n := testNet(e)
	var done []sim.Time
	for _, from := range []int{na, nb} {
		e.Go("send", func(p *sim.Proc) {
			send(p, n, from, nc, 1<<20)
			done = append(done, p.Now())
		})
	}
	e.Run()
	ser := sim.Time((1 << 20) * int64(time.Second) / (1 << 30))
	last := done[len(done)-1]
	if last < 3*ser {
		t.Fatalf("incast finished at %v, expected RX serialization ≥ %v", last, 3*ser)
	}
}

func TestParallelDisjointPairsOverlap(t *testing.T) {
	// a→b and c→... use disjoint NICs; they must overlap fully.
	e := newEngine(t)
	n := testNet(e)
	n.AddNode("d")
	for _, pair := range [][2]int{{na, nb}, {nc, nd}} {
		e.Go("s", func(p *sim.Proc) { send(p, n, pair[0], pair[1], 1<<20) })
	}
	e.Run()
	ser := sim.Time((1 << 20) * int64(time.Second) / (1 << 30))
	want := 2*ser + sim.Time(10*time.Microsecond)
	if e.Now() != want {
		t.Fatalf("disjoint transfers took %v, want %v (full overlap)", e.Now(), want)
	}
}

func TestUnknownNodePanics(t *testing.T) {
	e := newEngine(t)
	n := testNet(e)
	e.Go("send", func(p *sim.Proc) { n.Send(p, "a", "zzz", 10) })
	defer func() {
		if recover() == nil {
			t.Fatal("unknown receiver must panic")
		}
	}()
	e.Run()
}

// TestNodeIndexOutOfRangePanics: a message to or from an index AddNode
// never returned panics, loopback included.
func TestNodeIndexOutOfRangePanics(t *testing.T) {
	for _, pair := range [][2]int{{na, 3}, {-1, nb}, {3, 3}} {
		func() {
			e := newEngine(t)
			n := testNet(e)
			e.Go("send", func(p *sim.Proc) { send(p, n, pair[0], pair[1], 10) })
			defer func() {
				if recover() == nil {
					t.Errorf("message %d -> %d must panic", pair[0], pair[1])
				}
			}()
			e.Run()
		}()
	}
}

// TestSendByName: the name-keyed Send is Message between the named nodes'
// indexes.
func TestSendByName(t *testing.T) {
	e := newEngine(t)
	n := testNet(e)
	var byName, byIndex sim.Time
	e.Go("send", func(p *sim.Proc) {
		t0 := p.Now()
		n.Send(p, "a", "c", 1<<20)
		byName = p.Now() - t0
		t0 = p.Now()
		send(p, n, na, nc, 1<<20)
		byIndex = p.Now() - t0
	})
	e.Run()
	if byName != byIndex || n.Messages() != 2 || n.Bytes() != 2<<20 {
		t.Fatalf("by name %v, by index %v, %d msgs, %d bytes", byName, byIndex, n.Messages(), n.Bytes())
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	e := newEngine(t)
	n := testNet(e)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode must panic")
		}
	}()
	n.AddNode("a")
}

func TestTenGbEConfig(t *testing.T) {
	cfg := TenGbE("public")
	if cfg.Bandwidth != 1250<<20 || cfg.Name != "public" {
		t.Fatalf("TenGbE = %+v", cfg)
	}
}

func TestThroughputCeiling(t *testing.T) {
	// Saturating one TX link: delivered rate must not exceed bandwidth.
	e := newEngine(t)
	n := testNet(e)
	const msgs = 64
	const size = 1 << 20
	for i := 0; i < msgs; i++ {
		e.Go("s", func(p *sim.Proc) { send(p, n, na, nb, size) })
	}
	e.Run()
	elapsed := e.Now().Seconds()
	rate := float64(n.Bytes()) / elapsed
	if rate > float64(1<<30)*1.01 {
		t.Fatalf("delivered %.0f B/s exceeds 1 GiB/s link", rate)
	}
}

// TestNodeLatencyMultiplier: a degraded node stretches propagation latency
// for messages touching it (larger endpoint multiplier wins, paid once);
// serialization is unchanged, other paths are unaffected, and 0/1 restore
// healthy timing.
func TestNodeLatencyMultiplier(t *testing.T) {
	e := newEngine(t)
	n := testNet(e)
	ser := time.Duration((1 << 20) * int64(time.Second) / (1 << 30))
	healthy := sim.Time(2*ser + 10*time.Microsecond)
	elapsed := func(from, to int) sim.Time {
		var d sim.Time
		e.Go("send", func(p *sim.Proc) {
			t0 := p.Now()
			send(p, n, from, to, 1<<20)
			d = p.Now() - t0
		})
		e.Run()
		return d
	}
	if got := elapsed(na, nb); got != healthy {
		t.Fatalf("healthy delivery %v, want %v", got, healthy)
	}
	n.SetNodeLatencyMultiplier("b", 5)
	want := sim.Time(2*ser + 50*time.Microsecond)
	if got := elapsed(na, nb); got != want {
		t.Fatalf("to degraded node: %v, want %v", got, want)
	}
	if got := elapsed(nb, nc); got != want {
		t.Fatalf("from degraded node: %v, want %v", got, want)
	}
	if got := elapsed(na, nc); got != healthy {
		t.Fatalf("unrelated path slowed: %v, want %v", got, healthy)
	}
	n.SetNodeLatencyMultiplier("a", 3) // both degraded: larger wins, paid once
	if got := elapsed(na, nb); got != want {
		t.Fatalf("both degraded: %v, want %v", got, want)
	}
	n.SetNodeLatencyMultiplier("a", 0)
	n.SetNodeLatencyMultiplier("b", 1)
	if got := elapsed(na, nb); got != healthy {
		t.Fatalf("restored delivery %v, want %v", got, healthy)
	}
}
