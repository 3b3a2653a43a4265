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
			inUse = rest[0].Res.inUse // the stage's units are back
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
			log = append(log, fmt.Sprintf("%s %s: inUse %d queued %d acquires %d waits %d",
				when, r.name, r.inUse, r.queued, r.totalAcquires, r.totalWaits))
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
		if finished != spawned || len(e.live) != 0 {
			t.Fatalf("seed %d: %d of %d processes finished, %d live", seed, finished, spawned, len(e.live))
		}
	}
}

// chainScript runs a seeded random workload of growing hold chains over
// contended resources. Each process's chain is a list of legs: the start
// appends the first, and each leg's last Done appends the next with Then,
// so a chain runs well past chainBuf in all. A leg may open with a keep
// stage on a lock that a later leg's end releases; stages may be zero
// length. The processes are spawned either chain-only (GoChain) or as
// coroutine processes whose body is one Hold of the first leg. Three more
// are cut by Drain in known states: one queued on a resource, one holding
// a keep stage, and one spawned after the cut, not yet started. It returns
// the dispatch trace, every Done call and the resources' statistics at the
// cut and after the Drain.
func chainScript(t *testing.T, seed int64, chainOnly bool) []string {
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
	lock, hog, kept := NewResource(e, "lock", 1), NewResource(e, "hog", 1), NewResource(e, "kept", 1)
	all := append(res, lock, hog, kept)

	type script struct {
		p       *Proc
		legs    [][]Stage
		release []bool // release[j]: the end of leg j gives the lock back
		next    int    // the leg to append next
	}
	var scripts []*script
	hook := func(rest []Stage) {
		log = append(log, fmt.Sprintf("hook %d arg %d", e.now, rest[0].Arg))
		if len(rest) > 1 && rest[1].D > 0 && e.now%3 == 0 {
			rest[1].D += time.Microsecond // a later delay set at this instant
		}
	}
	legEnd := func(rest []Stage) {
		sc := scripts[rest[0].Arg]
		if sc.release[sc.next-1] {
			lock.Release(1)
		}
		log = append(log, fmt.Sprintf("leg %d of %d at %d, lock %d", sc.next-1, rest[0].Arg, e.now, lock.inUse))
		if sc.next < len(sc.legs) {
			sc.next++
			sc.p.Then(sc.legs[sc.next-1]...)
		}
	}
	spawn := func(i int) {
		sc := scripts[i]
		start := func(p *Proc) {
			sc.p, sc.next = p, 1
			if chainOnly {
				p.Then(sc.legs[0]...)
			} else {
				p.Hold(sc.legs[0]...)
			}
		}
		if chainOnly {
			e.GoChain("p", "", i, start)
		} else {
			e.GoNamed("p", "", i, start)
		}
	}

	for i := 0; i < 3+rng.Intn(6); i++ {
		sc := &script{}
		holding := false
		for j := 0; j < 3+rng.Intn(6); j++ {
			var leg []Stage
			if j == 0 {
				leg = append(leg, Stage{D: time.Duration(rng.Intn(3)) * time.Microsecond})
			}
			if !holding && rng.Intn(3) == 0 {
				leg, holding = append(leg, Stage{Res: lock, N: 1, D: Keep}), true
			}
			for k := 1 + rng.Intn(4); k > 0; k-- {
				s := Stage{D: time.Duration(rng.Intn(4)) * time.Microsecond} // 0: a zero-length step
				if rng.Intn(3) > 0 {
					s.Res = res[rng.Intn(len(res))]
					s.N = 1 + rng.Intn(s.Res.Capacity())
				}
				if rng.Intn(2) == 0 {
					s.Done, s.Arg = hook, int64(100*i+j)
				}
				leg = append(leg, s)
			}
			leg = append(leg, Stage{Done: legEnd, Arg: int64(i)})
			release := holding && rng.Intn(2) == 0
			holding = holding && !release
			sc.legs, sc.release = append(sc.legs, leg), append(sc.release, release)
		}
		sc.release[len(sc.release)-1] = sc.release[len(sc.release)-1] || holding
		scripts = append(scripts, sc)
		spawn(i)
	}
	// Cut in known states: queued behind a long hold, holding a keep stage.
	n := len(scripts)
	scripts = append(scripts,
		&script{legs: [][]Stage{{{Res: hog, N: 1, D: time.Second}, {Done: legEnd, Arg: int64(n)}}}, release: []bool{false}},
		&script{legs: [][]Stage{{{Res: hog, N: 1, D: time.Microsecond}, {Done: legEnd, Arg: int64(n + 1)}}}, release: []bool{false}},
		&script{legs: [][]Stage{{{Res: kept, N: 1, D: Keep}, {D: time.Second}, {Done: legEnd, Arg: int64(n + 2)}}}, release: []bool{false}})
	for i := n; i < len(scripts); i++ {
		spawn(i)
	}

	stats := func(when string) {
		for _, r := range all {
			log = append(log, fmt.Sprintf("%s %s: inUse %d queued %d acquires %d waits %d",
				when, r.name, r.inUse, r.queued, r.totalAcquires, r.totalWaits))
		}
	}
	e.RunUntil(Time(5+rng.Intn(25)) * Time(time.Microsecond))
	started := false
	unstarted := func(p *Proc) { started = true }
	if chainOnly {
		e.GoChain("late", "", -1, unstarted)
	} else {
		e.Go("late", unstarted)
	}
	stats("cut")
	if hog.queued != 1 || kept.inUse != 1 {
		t.Fatalf("seed %d: at the cut, %d queued for hog (want 1), %d kept (want 1)", seed, hog.queued, kept.inUse)
	}
	e.Drain()
	stats("drained")
	if started || len(e.live) != 0 || hog.queued != 0 || kept.inUse != 1 {
		t.Fatalf("seed %d: after Drain: late started %v, %d live, %d queued for hog (want 0), %d kept (want 1)",
			seed, started, len(e.live), hog.queued, kept.inUse)
	}
	e.Run()
	e.Close() // chain-only processes in the pool: nothing to stop
	return log
}

// TestChainMatchesHold: a chain-only process is indistinguishable from a
// coroutine process running the same chain in one Hold — the same events
// at the same (t, seq) for the same processes, Done calls at the same
// instants, the same Resource bookkeeping — with chains grown by Then from
// Done past chainBuf, keep stages, zero-length stages and contention, and
// across a Drain that kills processes queued, holding a keep stage and not
// yet started.
func TestChainMatchesHold(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		want := chainScript(t, seed, false)
		got := chainScript(t, seed, true)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<end>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d: line %d: Hold %q, chain-only %q", seed, i, want[i], g)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: chain-only logged %d lines, Hold %d", seed, len(got), len(want))
		}
	}
}
