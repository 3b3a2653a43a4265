package sim

import (
	"testing"
	"time"
)

// The BenchmarkEngine* suite measures the engine's steady-state hot paths:
// events/second (Schedule), a process resuming itself (Sleep),
// cross-process switches (PingPong), pooled spawn/complete cycles
// (GoSwitch), queued resource handoffs (ResourceContention), contended
// hold chains (Hold) and chain-only processes running them (Chain). All
// report allocations; TestEngineSteadyStateAllocs asserts they are zero in
// steady state.

// BenchmarkEngineSchedule dispatches self-rescheduling fn events: the
// engine-context event path (heap push/pop + dispatch), one event per op.
func BenchmarkEngineSchedule(b *testing.B) {
	e := newEngine(b)
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			e.Schedule(time.Nanosecond, fn)
		}
	}
	e.Schedule(time.Nanosecond, fn)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineSleep measures one park/resume per op by a lone process
// sleeping in a loop: a wake event the sleeper dispatches to itself, so no
// goroutine switch at all.
func BenchmarkEngineSleep(b *testing.B) {
	e := newEngine(b)
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEnginePingPong measures one cross-process switch per op: two
// sleepers offset by 1 ns alternate, so every wake event resumes the
// process that is not running.
func BenchmarkEnginePingPong(b *testing.B) {
	e := newEngine(b)
	for i := 0; i < 2; i++ {
		e.Go("pinger", func(p *Proc) {
			p.Sleep(time.Duration(i+1) * time.Nanosecond)
			for j := i + 1; j < b.N; j += 2 {
				p.Sleep(2 * time.Nanosecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineGoSwitch measures a full pooled spawn: Go + start event +
// body + worker recycle per op, the cycle every EC sub-operation pays.
func BenchmarkEngineGoSwitch(b *testing.B) {
	e := newEngine(b)
	body := func(p *Proc) {}
	e.Go("warm", body) // create the worker once
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Go("child", body)
		e.Run()
	}
}

// BenchmarkEngineResourceContention measures queued acquire/release through
// a capacity-1 resource under 4-way contention: intrusive wait-queue links,
// grant wakeups and the FIFO handoff. One op is one acquire+hold+release.
func BenchmarkEngineResourceContention(b *testing.B) {
	e := newEngine(b)
	r := NewResource(e, "mutex", 1)
	const workers = 4
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		e.Go("worker", func(p *Proc) {
			for i := 0; i < per; i++ {
				r.Acquire(p, 1)
				p.Sleep(time.Nanosecond)
				r.Release(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineHold measures a contended 3-stage hold chain — a
// capacity-1 resource held 1 ns, a 1 ns sleep, a second capacity-1 resource
// held 1 ns, the CPU → wire → CPU shape of a simulated message — run by 4
// processes, the steps between waits running in dispatch. One op is one
// chain: compare with three ResourceContention ops.
func BenchmarkEngineHold(b *testing.B) {
	e := newEngine(b)
	r1, r2 := NewResource(e, "tx", 1), NewResource(e, "rx", 1)
	const workers = 4
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		e.Go("worker", func(p *Proc) {
			for i := 0; i < per; i++ {
				p.Hold(Stage{Res: r1, N: 1, D: time.Nanosecond}, Stage{D: time.Nanosecond},
					Stage{Res: r2, N: 1, D: time.Nanosecond})
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineChain runs BenchmarkEngineHold's contended 3-stage chain
// as one chain-only process per op, 4 in flight: a pooled GoChain, its
// start event, the steps in dispatch and the recycle, with no coroutine —
// the life of a simulated shard request. Compare with GoSwitch + Hold.
func BenchmarkEngineChain(b *testing.B) {
	e := newEngine(b)
	r1, r2 := NewResource(e, "tx", 1), NewResource(e, "rx", 1)
	spawned := 0
	var start func(p *Proc)
	next := func([]Stage) {
		if spawned < b.N {
			spawned++
			e.GoChain("chain", "", -1, start)
		}
	}
	start = func(p *Proc) {
		p.Then(Stage{Res: r1, N: 1, D: time.Nanosecond}, Stage{D: time.Nanosecond},
			Stage{Res: r2, N: 1, D: time.Nanosecond, Done: next})
	}
	for w := 0; w < 4; w++ {
		next(nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
