package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != Time(3*time.Millisecond) {
		t.Fatalf("final time = %v", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		wake = p.Now()
	})
	e.Run()
	if wake != Time(5*time.Millisecond) {
		t.Fatalf("woke at %v, want 5ms", wake)
	}
}

func TestProcSleepZeroAndNegative(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Go("p", func(p *Proc) {
		p.Sleep(0)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("Sleep(0) should not block forever")
	}
	e.Go("neg", func(p *Proc) {
		p.Sleep(-time.Second)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("negative sleep should panic the run")
		}
	}()
	e.Run()
}

func TestSleepUntil(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Go("p", func(p *Proc) {
		p.SleepUntil(Time(2 * time.Millisecond))
		times = append(times, p.Now())
		p.SleepUntil(Time(time.Millisecond)) // in the past: no-op
		times = append(times, p.Now())
	})
	e.Run()
	if times[0] != Time(2*time.Millisecond) || times[1] != Time(2*time.Millisecond) {
		t.Fatalf("times = %v", times)
	}
}

func TestInterleavedProcs(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(2 * time.Millisecond)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(1 * time.Millisecond)
		order = append(order, "b1")
	})
	e.Run()
	want := []string{"a0", "b0", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntilStopsAndResumes(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Millisecond)
			count++
		}
	})
	e.RunUntil(Time(3500 * time.Microsecond))
	if count != 3 {
		t.Fatalf("count after 3.5ms = %d, want 3", count)
	}
	if e.Now() != Time(3500*time.Microsecond) {
		t.Fatalf("clock = %v", e.Now())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("count after full run = %d", count)
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "mutex", 1)
	var inside, maxInside int
	for i := 0; i < 5; i++ {
		e.Go("worker", func(p *Proc) {
			r.Acquire(p, 1)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(time.Millisecond)
			inside--
			r.Release(1)
		})
	}
	e.Run()
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxInside)
	}
	if e.Now() != Time(5*time.Millisecond) {
		t.Fatalf("serialized duration = %v, want 5ms", e.Now())
	}
}

func TestResourceParallelism(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "pool", 4)
	for i := 0; i < 8; i++ {
		e.Go("worker", func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(time.Millisecond)
			r.Release(1)
		})
	}
	e.Run()
	// 8 unit-jobs over 4 servers: two waves of 1ms.
	if e.Now() != Time(2*time.Millisecond) {
		t.Fatalf("duration = %v, want 2ms", e.Now())
	}
	if r.Waits() != 4 {
		t.Fatalf("waits = %d, want 4", r.Waits())
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "mutex", 1)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			r.Acquire(p, 1)
			order = append(order, i)
			p.Sleep(time.Millisecond)
			r.Release(1)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
}

func TestResourceMultiUnit(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "pool", 3)
	var got []string
	e.Go("big", func(p *Proc) {
		r.Acquire(p, 3)
		got = append(got, "big")
		p.Sleep(time.Millisecond)
		r.Release(3)
	})
	e.Go("small", func(p *Proc) {
		r.Acquire(p, 1)
		got = append(got, "small@"+p.Now().String())
		r.Release(1)
	})
	e.Run()
	// big acquires all 3 first (FIFO), small waits until 1ms.
	if got[0] != "big" || got[1] != "small@1ms" {
		t.Fatalf("got %v", got)
	}
}

func TestTryAcquire(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "pool", 2)
	if !r.TryAcquire(2) {
		t.Fatal("TryAcquire on free resource must succeed")
	}
	if r.TryAcquire(1) {
		t.Fatal("TryAcquire over capacity must fail")
	}
	r.Release(2)
	if !r.TryAcquire(1) {
		t.Fatal("TryAcquire after release must succeed")
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 2)
	e.Go("w", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(10 * time.Millisecond)
		r.Release(1)
	})
	e.Run()
	// One of two units busy for the whole window: 50%.
	u := r.Utilization(0)
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestResourceInvalidOps(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 2)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero capacity", func() { NewResource(e, "bad", 0) })
	mustPanic("over-capacity acquire", func() { r.TryAcquire(3) })
	mustPanic("release more than held", func() { r.Release(1) })
}

func TestLatch(t *testing.T) {
	e := NewEngine()
	l := NewLatch(e, 3)
	var doneAt Time
	e.Go("waiter", func(p *Proc) {
		l.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Millisecond
		e.Schedule(d, func() { l.Done() })
	}
	e.Run()
	if doneAt != Time(3*time.Millisecond) {
		t.Fatalf("latch opened at %v, want 3ms", doneAt)
	}
	if !l.Open() {
		t.Fatal("latch must report open")
	}
}

func TestLatchZeroAndOverdone(t *testing.T) {
	e := NewEngine()
	l := NewLatch(e, 0)
	ran := false
	e.Go("waiter", func(p *Proc) {
		l.Wait(p) // already open: returns immediately
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("Wait on open latch must not block")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Done on open latch must panic")
		}
	}()
	l.Done()
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	woke := 0
	for i := 0; i < 4; i++ {
		e.Go("waiter", func(p *Proc) {
			s.Wait(p)
			woke++
		})
	}
	e.Schedule(time.Millisecond, func() { s.Fire() })
	e.Run()
	if woke != 4 {
		t.Fatalf("woke = %d, want 4", woke)
	}
	if !s.Fired() {
		t.Fatal("signal must report fired")
	}
	s.Fire() // idempotent
	ran := false
	e.Go("late", func(p *Proc) {
		s.Wait(p) // already fired
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("Wait after Fire must not block")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		r := NewResource(e, "mutex", 1)
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			e.Go("w", func(p *Proc) {
				for j := 0; j < 3; j++ {
					r.Acquire(p, 1)
					log = append(log, p.Now().String())
					p.Sleep(time.Duration(i+1) * time.Millisecond)
					r.Release(1)
					p.Sleep(time.Millisecond)
				}
				_ = i
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestDrainKillsParkedProcs(t *testing.T) {
	e := NewEngine()
	finished := false
	e.Go("stuck", func(p *Proc) {
		s := NewSignal(e) // never fired
		s.Wait(p)
		finished = true
	})
	e.RunUntil(Time(time.Millisecond))
	if e.Live() != 1 {
		t.Fatalf("live = %d, want 1", e.Live())
	}
	e.Drain()
	if e.Live() != 0 {
		t.Fatalf("live after drain = %d, want 0", e.Live())
	}
	if finished {
		t.Fatal("killed process must not resume normally")
	}
}

func TestDrainRunsDeferredCleanup(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "mutex", 1)
	cleaned := false
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 1)
		defer func() {
			cleaned = true
			r.Release(1)
		}()
		NewSignal(e).Wait(p) // block forever
	})
	e.Go("waiter", func(p *Proc) {
		r.Acquire(p, 1)
		r.Release(1)
	})
	e.RunUntil(Time(time.Millisecond))
	e.Drain()
	if !cleaned {
		t.Fatal("deferred cleanup must run during Drain")
	}
	if r.InUse() != 0 {
		t.Fatalf("resource still held after drain: %d", r.InUse())
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Go("bad", func(p *Proc) { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Fatal("process panic must propagate out of Run")
		}
	}()
	e.Run()
}

// TestNestedRunPanics pins the re-entrancy guard: Run/RunUntil re-entered
// from a Schedule callback must fail loudly (the baton-passing dispatch
// cannot nest) rather than silently corrupt the outer run's bound.
func TestNestedRunPanics(t *testing.T) {
	e := NewEngine()
	var nested any
	e.Schedule(time.Millisecond, func() {
		defer func() { nested = recover() }()
		e.RunUntil(Time(2 * time.Millisecond))
	})
	e.Run()
	if nested == nil {
		t.Fatal("nested RunUntil from a callback must panic")
	}
}

// TestScheduleFnPanicNotAttributedToProc pins engine-context panic
// attribution: a panicking Schedule callback must surface verbatim from
// Run even when a blocked process's goroutine holds the dispatch baton —
// not unwind that process's body, not run its defers, and not be reported
// as that process panicking.
func TestScheduleFnPanicNotAttributedToProc(t *testing.T) {
	e := NewEngine()
	unwound := false
	e.Go("innocent", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(time.Second) // the fn event below fires while we are parked
	})
	e.Schedule(time.Millisecond, func() { panic("tick boom") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("callback panic must propagate out of Run")
		}
		if s, ok := r.(string); !ok || s != "tick boom" {
			t.Fatalf("panic value = %v, want the callback's own value", r)
		}
		if unwound {
			t.Fatal("innocent process body must not be unwound by a callback panic")
		}
	}()
	e.Run()
}

func TestTimeFormatting(t *testing.T) {
	tm := Time(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds() = %v", tm.Seconds())
	}
	if tm.String() != "1.5s" {
		t.Fatalf("String() = %q", tm.String())
	}
	if tm.Duration() != 1500*time.Millisecond {
		t.Fatalf("Duration() = %v", tm.Duration())
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("NewRand must be deterministic per seed")
		}
	}
}

func BenchmarkParkResume(b *testing.B) {
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	b.ResetTimer()
	e.Run()
}

func BenchmarkEventDispatch(b *testing.B) {
	e := NewEngine()
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			e.Schedule(time.Nanosecond, fn)
		}
	}
	e.Schedule(time.Nanosecond, fn)
	b.ResetTimer()
	e.Run()
}

// TestWakerWaitTimeout covers both outcomes of the timed wait: a Wake
// before the deadline returns true at the wake time, a deadline with no
// Wake returns false at the deadline, and after a timeout a late Wake is
// banked as pending for the next wait rather than lost or misdelivered.
func TestWakerWaitTimeout(t *testing.T) {
	e := NewEngine()
	w := NewWaker(e)
	var log []string
	e.Go("waiter", func(p *Proc) {
		if !w.WaitTimeout(p, 10*time.Millisecond) {
			t.Errorf("wake at 3ms reported as timeout")
		}
		log = append(log, "wake@"+p.Now().String())
		if w.WaitTimeout(p, 5*time.Millisecond) {
			t.Errorf("no Wake before deadline, got true")
		}
		log = append(log, "timeout@"+p.Now().String())
		// The Wake at 20ms lands after the timeout above: it must bank as
		// pending and satisfy this wait immediately at 25ms.
		p.Sleep(22 * time.Millisecond)
		if !w.WaitTimeout(p, time.Millisecond) {
			t.Errorf("pending Wake not consumed")
		}
		log = append(log, "pending@"+p.Now().String())
	})
	e.Schedule(3*time.Millisecond, w.Wake)
	e.Schedule(20*time.Millisecond, w.Wake)
	e.Run()
	want := []string{"wake@3ms", "timeout@8ms", "pending@30ms"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log[%d] = %q, want %q (full: %v)", i, log[i], want[i], log)
		}
	}
}

// TestWakerWaitTimeoutStaleTimer: when a Wake wins the race, the loser
// timer event must be dropped as stale and not disturb a later park.
func TestWakerWaitTimeoutStaleTimer(t *testing.T) {
	e := NewEngine()
	w := NewWaker(e)
	e.Go("waiter", func(p *Proc) {
		if !w.WaitTimeout(p, 50*time.Millisecond) {
			t.Errorf("wake at 1ms reported as timeout")
		}
		// The 50ms timer is still queued; sleeping across it must not be
		// cut short by the stale event.
		p.Sleep(100 * time.Millisecond)
		if p.Now() != Time(101*time.Millisecond) {
			t.Errorf("stale timer disturbed a later sleep: now=%v", p.Now())
		}
	})
	e.Schedule(time.Millisecond, w.Wake)
	e.Run()
}

// TestCloseRetiresWorkers: an engine that ran a fan of processes (some
// finished, some still parked) owns no goroutine after Close, and a closed
// engine refuses new work loudly instead of hanging on a dead pool.
func TestCloseRetiresWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 32; i++ {
		e.Go("sleeper", func(p *Proc) { p.Sleep(time.Microsecond) })
		e.Go("stuck", func(p *Proc) { NewSignal(e).Wait(p) })
	}
	e.RunUntil(Time(time.Millisecond))
	e.Go("unstarted", func(p *Proc) { t.Error("process spawned after the last run must not execute") })
	if got := runtime.NumGoroutine() - before; got < 32 {
		t.Fatalf("engine holds %d goroutines before Close, want its pooled workers", got)
	}
	events, now := e.Executed(), e.Now()
	e.Close()
	e.Close() // idempotent
	if e.Live() != 0 {
		t.Fatalf("live after Close = %d, want 0", e.Live())
	}
	if e.Now() != now || e.Executed() < events {
		t.Fatalf("Close moved the clock or lost events: %v/%d -> %v/%d", now, events, e.Now(), e.Executed())
	}
	// Close waits for the workers' loops to return; the runtime may take a
	// moment more to retire the goroutines themselves.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Close, %d before the engine existed", got, before)
	}

	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a closed engine must panic", what)
			}
		}()
		fn()
	}
	mustPanic("Go", func() { e.Go("late", func(p *Proc) {}) })
	mustPanic("Run", e.Run)
}
