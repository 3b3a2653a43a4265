package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// holdScript runs a seeded random workload of hold chains over contended
// resources, each chain either as one Proc.Hold or as the
// Acquire/Sleep/Release triplets Hold replaces, cuts the run mid-chain with
// RunUntil and kills what is left with Drain. It returns the dispatch trace
// (t, seq, process of every event), every hook call, and the resources'
// statistics before and after the Drain.
func holdScript(t *testing.T, seed int64, chained bool) []string {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(seed))
	var log []string
	e.traced = func(ev event) {
		who := "fn"
		if ev.proc != nil {
			who = ev.proc.Name()
		}
		log = append(log, fmt.Sprintf("ev %d #%d %s", ev.t, ev.seq, who))
	}
	res := []*Resource{NewResource(e, "a", 1), NewResource(e, "b", 2), NewResource(e, "c", 3)}
	hook := func(rest []Stage) {
		inUse := -1
		if rest[0].Res != nil {
			inUse = rest[0].Res.InUse() // the stage's units are back
		}
		log = append(log, fmt.Sprintf("hook %d arg %d inUse %d", e.now, rest[0].Arg, inUse))
		// Like netsim's propagation stage: a later delay set from state
		// at this instant.
		if len(rest) > 1 && e.now%3 == 0 {
			rest[1].D += time.Microsecond
		}
	}
	for i := 0; i < 3+rng.Intn(6); i++ {
		var script [][]Stage
		for j := 0; j < 2+rng.Intn(5); j++ {
			chain := make([]Stage, 1+rng.Intn(4))
			for k := range chain {
				s := Stage{D: time.Duration(rng.Intn(4)) * time.Microsecond} // 0: a zero-length step
				if rng.Intn(3) > 0 {
					s.Res = res[rng.Intn(len(res))]
					s.N = 1 + rng.Intn(s.Res.Capacity())
				}
				if rng.Intn(2) == 0 {
					s.Done, s.Arg = hook, int64(100*i+10*j+k)
				}
				chain[k] = s
			}
			script = append(script, chain)
		}
		start := time.Duration(rng.Intn(3)) * time.Microsecond
		e.GoNamed("p", "", i, func(p *Proc) {
			p.Sleep(start)
			for _, chain := range script {
				if chained {
					p.Hold(chain...)
					continue
				}
				cs := append([]Stage(nil), chain...) // hooks may edit later stages
				for k := range cs {
					s := &cs[k]
					if s.Res != nil {
						s.Res.Acquire(p, s.N)
					}
					p.Sleep(s.D)
					if s.Res != nil {
						s.Res.Release(s.N)
					}
					if s.Done != nil {
						s.Done(cs[k:])
					}
				}
			}
		})
	}
	stats := func(when string) {
		for _, r := range res {
			log = append(log, fmt.Sprintf("%s %s: inUse %d queued %d acquires %d waits %d busy %.0f",
				when, r.name, r.InUse(), r.QueueLen(), r.Acquires(), r.Waits(), r.Utilization(0)*1e9))
		}
	}
	e.RunUntil(Time(rng.Intn(25)) * Time(time.Microsecond))
	stats("cut")
	e.Drain()
	stats("drained")
	e.Run()
	return log
}

// TestHoldMatchesTriplet: a hold chain run in engine context is
// indistinguishable from the triplets it replaces — the same events at the
// same (t, seq) for the same processes, hooks at the same instants, the same
// Resource bookkeeping — including processes killed by Drain while queued,
// granted or holding mid-chain.
func TestHoldMatchesTriplet(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		want := holdScript(t, seed, false)
		got := holdScript(t, seed, true)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<end>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d: line %d: triplets %q, Hold %q", seed, i, want[i], g)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: Hold logged %d lines, triplets %d", seed, len(got), len(want))
		}
	}
}

// TestEventQueueOrder drives the calendar queue through the engine with
// random delays — same time (the ring), within a slot, within the window,
// beyond it (the far heap) — for Schedule callbacks scheduled both from the
// driver and from engine context, and for processes that wake at the same
// candidate instants as the callbacks, then Hold a contended Resource and
// Sleep. RunUntil bounds stop short of the next event (a refused pop that
// must not move the window), land exactly on a queued time or 1 ns before
// one, or jump several windows ahead. Every dispatched event, of every kind,
// must run in (t, seq) order, every callback exactly once, and a bound must
// leave nothing due at or before it.
func TestEventQueueOrder(t *testing.T) {
	delay := func(rng *rand.Rand) time.Duration {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return time.Duration(rng.Intn(1 << slotBits))
		case 2, 3:
			return time.Duration(rng.Intn(calSlots << slotBits))
		case 4:
			return time.Duration(rng.Int63n(8 * calSlots << slotBits))
		}
		return time.Duration(rng.Int63n(int64(time.Second)))
	}
	type key struct {
		t Time
		n int
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newEngine(t)
		var last event // seqs start at 1
		bound := Time(0)
		e.traced = func(ev event) {
			if ev.t < last.t || ev.t == last.t && ev.seq <= last.seq {
				t.Fatalf("seed %d: dispatched (%d, #%d) after (%d, #%d)", seed, ev.t, ev.seq, last.t, last.seq)
			}
			if ev.t > bound {
				t.Fatalf("seed %d: dispatched (%d, #%d) past RunUntil(%d)", seed, ev.t, ev.seq, bound)
			}
			last = ev
		}
		res := NewResource(e, "r", 2)
		pending := map[key]bool{}
		asleep := map[int]Time{} // process id -> the instant its first Sleep ends
		n, spawned, finished := 0, 0, 0
		var schedule func() time.Duration
		schedule = func() time.Duration {
			d := delay(rng)
			n++
			k := key{e.now + Time(d), n}
			pending[k] = true
			e.Schedule(d, func() {
				if !pending[k] {
					t.Fatalf("seed %d: %+v ran twice", seed, k)
				}
				for p := range pending {
					if p.t < k.t || p.t == k.t && p.n < k.n {
						t.Fatalf("seed %d: ran %+v before %+v", seed, k, p)
					}
				}
				delete(pending, k)
				if rng.Intn(3) > 0 {
					schedule()
				}
			})
			return d
		}
		spawn := func(d time.Duration) {
			id, at := spawned, e.now+Time(d)
			spawned++
			asleep[id] = at
			e.GoNamed("q", "", id, func(p *Proc) {
				p.Sleep(d)
				if p.Now() != at {
					t.Fatalf("seed %d: process %d woke at %d, want %d", seed, id, p.Now(), at)
				}
				delete(asleep, id)
				p.Hold(Stage{Res: res, N: 1 + rng.Intn(2), D: delay(rng) / 64}, Stage{D: delay(rng) / 64})
				p.Sleep(delay(rng))
				finished++
			})
		}
		for round := 0; round < 300; round++ {
			for i := rng.Intn(8); i > 0; i-- {
				if d := schedule(); rng.Intn(2) == 0 {
					spawn(d) // wakes at the callback's instant
				}
			}
			bound = e.now + Time(delay(rng))
			if c := rng.Intn(3); c > 0 {
				var queued []Time
				for k := range pending {
					queued = append(queued, k.t)
				}
				for _, at := range asleep {
					queued = append(queued, at)
				}
				if len(queued) > 0 {
					slices.Sort(queued)
					bound = queued[rng.Intn(len(queued))]
					if c == 2 {
						bound-- // may fall below the clock: a refused ring pop
					}
				}
			}
			e.RunUntil(bound)
			for k := range pending {
				if k.t <= bound {
					t.Fatalf("seed %d: RunUntil(%d) left %+v queued", seed, bound, k)
				}
			}
			for id, at := range asleep {
				if at <= bound {
					t.Fatalf("seed %d: RunUntil(%d) left process %d asleep past %d", seed, bound, id, at)
				}
			}
		}
		bound = forever
		e.Run()
		if len(pending) != 0 {
			t.Fatalf("seed %d: %d events never ran", seed, len(pending))
		}
		if finished != spawned || e.Live() != 0 {
			t.Fatalf("seed %d: %d of %d processes finished, %d live", seed, finished, spawned, e.Live())
		}
	}
}
