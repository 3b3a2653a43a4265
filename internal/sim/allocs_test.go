package sim

import (
	"fmt"
	"testing"
	"time"
	"unsafe"
)

// TestEngineSteadyStateAllocs is the engine-side allocation regression
// (mirroring the rs package's steady-state allocs tests): once the event
// queue, the live set and the worker pool have reached their high-water
// capacity, a steady mix of fn events, sleeps, pooled spawns, contended
// resource handoffs, hold chains and chain-only processes must allocate
// nothing — 0 allocs/event and 0 allocs/switch.
func TestEngineSteadyStateAllocs(t *testing.T) {
	// Bytes per event are what the benchmark sweep pays, 22.6 M times a run:
	// a new field must fail here, not cost 10 % unnoticed.
	if sz, nd := unsafe.Sizeof(event{}), unsafe.Sizeof(calNode{}); sz != 32 || nd != 40 {
		t.Fatalf("event is %d bytes, calNode %d; want 32 and 40", sz, nd)
	}
	e := newEngine(t)
	r := NewResource(e, "mutex", 1)
	child := func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(time.Microsecond)
		r.Release(1)
	}
	// A periodic engine-context event (evFn)...
	var tick func()
	tick = func() { e.Schedule(10*time.Microsecond, tick) }
	e.Schedule(10*time.Microsecond, tick)
	// ...a long-lived sleeper (evWake switches)...
	e.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(3 * time.Microsecond)
		}
	})
	// ...a process running contended hold chains with a hook (steps in
	// dispatch, the chain copied into the pooled Proc)...
	held := int64(0)
	done := func(rest []Stage) { held += rest[0].Arg }
	e.Go("holder", func(p *Proc) {
		for {
			p.Hold(Stage{Res: r, N: 1, D: time.Microsecond, Done: done, Arg: 1}, Stage{D: 2 * time.Microsecond})
		}
	})
	// ...chain-only children running BenchmarkEngineChain's chain, grown
	// by Then from a Done past a keep stage that a later step releases...
	var inFlight [16]*Proc // by spawn count, mod 16: a chain's Done finds its Proc
	chained := 0
	release := func([]Stage) { r.Release(1); chained++ }
	grow := func(rest []Stage) {
		inFlight[rest[0].Arg].Then(Stage{D: time.Microsecond}, Stage{Done: release})
	}
	spawns := 0
	chainStart := func(p *Proc) {
		i := spawns % len(inFlight)
		inFlight[i] = p
		spawns++
		p.Then(Stage{Res: r, N: 1, D: Keep}, Stage{D: time.Microsecond, Done: grow, Arg: int64(i)})
	}
	// ...and a driver that keeps spawning contending children (pooled
	// evStart + recycle, intrusive resource queue).
	e.Go("driver", func(p *Proc) {
		for {
			for i := 0; i < 4; i++ {
				e.Go("child", child)
			}
			e.GoChain("chain", "", -1, chainStart)
			p.Sleep(10 * time.Microsecond)
		}
	})

	// Warm up: grow heap/pool/live capacities to their high-water marks.
	e.RunUntil(e.Now() + Time(2*time.Millisecond))

	before := e.Executed()
	allocs := testing.AllocsPerRun(50, func() {
		e.RunUntil(e.Now() + Time(200*time.Microsecond))
	})
	events := e.Executed() - before
	if events == 0 {
		t.Fatal("steady-state window executed no events")
	}
	if allocs != 0 {
		t.Fatalf("steady state allocates: %.2f allocs/run over %d events (want 0)", allocs, events)
	}
	if held == 0 || chained == 0 {
		t.Fatalf("%d hold chains and %d chain-only processes completed, want some of each", held, chained)
	}
	e.Drain()
}

// TestDrainThenReuseDeterministic pins pooling determinism across Drain: an
// engine that ran a workload, was drained (killing parked and queued
// processes, recycling their workers), and then runs a second workload must
// produce the exact event interleaving a fresh engine produces for that
// second workload.
func TestDrainThenReuseDeterministic(t *testing.T) {
	workloadB := func(e *Engine) []string {
		base := e.Now()
		r := NewResource(e, "mutex", 1)
		var log []string
		for i := 0; i < 6; i++ {
			i := i
			e.GoNamed("b", "", i, func(p *Proc) {
				for j := 0; j < 3; j++ {
					r.Acquire(p, 1)
					log = append(log, fmt.Sprintf("%s@%v", p.Name(), time.Duration(p.Now()-base)))
					p.Sleep(time.Duration(i+1) * time.Microsecond)
					r.Release(1)
					p.Sleep(time.Microsecond)
				}
			})
		}
		e.Run()
		return log
	}

	fresh := newEngine(t)
	want := workloadB(fresh)

	used := newEngine(t)
	// Workload A: sleepers, resource holders and never-woken waiters, then
	// a mid-flight Drain that kills them all and recycles their workers.
	ra := NewResource(used, "a", 2)
	sig := NewLatch(used, 1)
	for i := 0; i < 8; i++ {
		used.Go("a-sleep", func(p *Proc) {
			for {
				p.Sleep(5 * time.Microsecond)
			}
		})
		used.Go("a-hold", func(p *Proc) {
			ra.Acquire(p, 1)
			defer ra.Release(1)
			sig.Wait(p) // never opened: killed by Drain
		})
	}
	used.RunUntil(used.Now() + Time(50*time.Microsecond))
	used.Drain()
	if len(used.live) != 0 {
		t.Fatalf("live after drain = %d, want 0", len(used.live))
	}

	got := workloadB(used)
	if len(got) != len(want) {
		t.Fatalf("reused engine log has %d entries, fresh has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleaving diverges at %d: fresh %q vs reused %q", i, want[i], got[i])
		}
	}
}
