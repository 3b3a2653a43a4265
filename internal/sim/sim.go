// Package sim provides a deterministic discrete-event simulation engine
// whose steady-state hot path is allocation-free.
//
// The reproduced paper measures a 4-node, 96-core, 52-SSD Ceph cluster; this
// repository replaces that hardware with simulation, so simulator throughput
// — not simulated fidelity — bounds how large a cluster and how long a
// timeline the evaluation can afford. The engine advances a virtual clock
// through a time-ordered heap of typed event records and runs simulation
// processes as goroutines with a strict engine⇄process handoff: exactly one
// goroutine (the engine or a single process) is ever runnable, so runs are
// bit-for-bit deterministic for a given seed and independent of GOMAXPROCS.
//
// Two design choices keep the hot path off the allocator and the scheduler:
//
//   - Events are concrete records, not boxed closures. A process wakeup —
//     the dominant event kind (every Sleep, Resource grant, Latch open and
//     Signal fire produces one) — is a {proc, generation} pair stored
//     directly in the heap slot; the generation guard makes stale wakeups
//     (a process resumed by someone else first, or killed by Drain) drop
//     harmlessly. Only Engine.Schedule carries a func() payload.
//   - Processes are pooled. Engine.Go reuses a parked worker goroutine and
//     its resume channel instead of spawning fresh ones; fan-out-heavy model
//     code (an EC write spawns k+m shard writers per op) churns no
//     goroutines in steady state. Process names are stored as unformatted
//     {prefix, arg, id} parts and only rendered by Name() — on panic, in
//     practice — so spawning never pays fmt.Sprintf either (GoNamed).
//
// Processes block on virtual time (Sleep), on counted resources (Resource),
// and on synchronization primitives (Latch, Signal, Waker). Waiting
// processes are linked into intrusive per-primitive queues (a parked process
// waits on at most one thing), so blocking allocates nothing. Model
// components such as CPUs, NICs, SSDs and PG locks are built from these
// primitives in the other internal packages.
//
// An engine's pooled workers are real goroutines, and everything a process
// body captured stays reachable through them: call Engine.Close when a run
// is over (it drains what is still live, retires the workers and waits for
// them to exit), or every engine a program ever ran stays pinned in memory.
//
// One engine uses one core, and a lone engine on an otherwise idle multi-P
// process is slower than the same engine at GOMAXPROCS=1: every baton
// handoff readies a goroutine (chansend → ready → wakep), which futex-wakes
// an idle P that finds nothing to run. The 24-cell benchmark sweep, run one
// cell at a time on two cores, spent 12 % of its samples in runtime.futex
// and 10 % in findRunnable and took 15.4–17.5 s against 12.9 s at
// GOMAXPROCS=1. The cure is to keep every P busy with an engine of its own
// (bench.RunSweep runs one cell per core), not to tune the engine.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration converts the time to a time.Duration offset from zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the time as a duration from simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Engine is a discrete-event simulation engine. It is not safe for use from
// multiple goroutines; all interaction must come from the goroutine that
// calls Run/RunUntil or from processes spawned with Go.
//
// Internally the engine has no goroutine of its own while running. The
// dispatch loop executes on whichever goroutine is active — the driver (the
// Run/RunUntil caller) or the process that just blocked — and the "baton"
// moves directly to the process the next event resumes: one channel handoff
// per process switch, and none at all when a process's own wakeup is the
// next event (the common case for a process sleeping through consecutive
// model delays). Exactly one goroutine is ever runnable, so determinism is
// unaffected by where the loop happens to run.
type Engine struct {
	now      Time
	seq      uint64
	procSeq  uint64
	limit    Time // dispatch bound of the current drive
	driving  bool // a drive is active (guards against re-entry)
	events   eventQueue
	driverCh chan struct{} // hands the baton back to the driver
	stopWhen func() bool   // optional extra dispatch brake (RunProc, Drain)
	live     []*Proc       // live processes, unordered (swap-removed); see spawnSeq
	free     []*Proc       // parked worker goroutines ready for reuse
	executed uint64
	fatal    any
	workers  sync.WaitGroup // started worker goroutines, for Close
	closed   bool
}

// forever is the dispatch bound of an unbounded Run.
const forever = Time(1<<63 - 1)

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{driverCh: make(chan struct{})}
	e.events.now = &e.now
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn at the current time plus delay. fn executes in engine
// context: it must not block (use Go for blocking work).
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.seq++
	e.events.push(event{t: e.now + Time(delay), seq: e.seq, fn: fn})
}

// wake schedules a resume of p at the current time. The wakeup is dropped if
// p has been resumed by someone else in the meantime (generation guard), so
// multiple wakers cannot double-resume a process.
func (e *Engine) wake(p *Proc) {
	e.seq++
	e.events.push(event{t: e.now, seq: e.seq, proc: p, gen: p.parkGen})
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.events.len() }

// Live returns the number of live (spawned, unfinished) processes.
func (e *Engine) Live() int { return len(e.live) }

// Executed returns the total number of events dispatched since creation:
// the denominator of the simulator's events/second throughput.
func (e *Engine) Executed() uint64 { return e.executed }

// Run executes events until none remain. It panics if a process panicked.
func (e *Engine) Run() { e.drive(forever) }

// RunUntil executes all events scheduled at or before t, then sets the clock
// to t. Events after t remain queued.
func (e *Engine) RunUntil(t Time) {
	e.drive(t)
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the clock by d, executing everything due in the window.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + Time(d)) }

// RunProc spawns fn as a process and drives the engine until it finishes,
// leaving any unrelated queued events (periodic daemons) in place. It panics
// if the event queue drains before the process completes (the process
// blocked forever).
func (e *Engine) RunProc(name string, fn func(p *Proc)) {
	done := false
	e.Go(name, func(p *Proc) {
		defer func() { done = true }()
		fn(p)
	})
	e.stopWhen = func() bool { return done }
	e.drive(forever)
	e.stopWhen = nil
	if !done {
		panic(fmt.Sprintf("sim: RunProc %q blocked forever", name))
	}
}

// drive runs the dispatch loop from the driver goroutine until the limit,
// the event queue, a stop predicate or a process panic ends it.
//
// Drives do not nest: a Schedule callback or process re-entering
// Run/RunUntil/RunProc would clobber the active bound and, when the baton
// is held by a process, deadlock on its own resume — so re-entry panics
// loudly instead. (The pre-baton engine tolerated driver-context nesting;
// nothing used it.)
func (e *Engine) drive(limit Time) {
	if e.driving {
		panic("sim: Run/RunUntil/RunProc re-entered from engine or process context")
	}
	if e.closed {
		panic("sim: Run/RunUntil/RunProc on a closed engine")
	}
	e.driving = true
	e.limit = limit
	e.dispatch(nil, false)
	e.driving = false
	if e.fatal != nil {
		panic(e.fatal)
	}
}

// runFn executes a Schedule callback. A panic becomes the engine fatal and
// surfaces verbatim from the driver's Run — it must not unwind (and be
// attributed to) whatever process happens to hold the dispatch baton.
func (e *Engine) runFn(fn func()) {
	defer func() {
		if r := recover(); r != nil && e.fatal == nil {
			e.fatal = r
		}
	}()
	fn()
}

// ready reports whether the baton holder should dispatch another event.
func (e *Engine) ready() bool {
	return e.fatal == nil &&
		e.events.len() > 0 && e.events.headTime() <= e.limit &&
		(e.stopWhen == nil || !e.stopWhen())
}

// dispatch executes ready events on the calling goroutine — the current
// baton holder. self is the process running the loop (nil when the driver
// holds the baton); dead marks a worker whose process body just ended.
//
// The loop ends when
//   - self's own wakeup (or, for a dead worker, its re-spawn) is popped:
//     no handoff at all, returns true and the goroutine just keeps running;
//   - another process must run: the baton passes with one channel send, and
//     a parked self then blocks for its own resume (returns true once it
//     arrives) while a dead worker returns false to await its next spawn;
//   - no event is ready: the baton returns to the driver.
func (e *Engine) dispatch(self *Proc, dead bool) bool {
	for {
		if !e.ready() {
			if self == nil {
				return false
			}
			e.driverCh <- struct{}{}
			if dead {
				return false
			}
			<-self.resume
			return true
		}
		ev := e.events.pop()
		if ev.t < e.now {
			panic(fmt.Sprintf("sim: time went backwards: %v -> %v", e.now, ev.t))
		}
		e.now = ev.t
		e.executed++
		q := ev.proc
		switch {
		case q == nil: // fn event
			e.runFn(ev.fn)
			continue
		case ev.gen == genStart:
			if !q.started {
				// The worker goroutine is created on first dispatch, not at
				// Go time, so engines built but never run own none.
				q.started = true
				e.workers.Add(1)
				go q.loop()
			}
		default: // wakeup
			if !q.parked || q.parkGen != ev.gen {
				continue // stale wakeup: resumed by someone else, or killed
			}
			q.parked = false
		}
		q.parkGen++
		if q == self {
			return true // direct self-resume: no handoff at all
		}
		q.resume <- struct{}{}
		if self == nil {
			<-e.driverCh // driver regains the baton, keeps dispatching
			continue
		}
		if dead {
			return false
		}
		<-self.resume
		return true
	}
}

// Drain kills every live process so their goroutines park back in the pool,
// then runs remaining events. Call it when a run ends before all processes
// naturally complete (e.g. a fixed-duration workload with requests still in
// flight). Determinism after Drain is preserved for subsequent spawns (the
// pool hands workers out in a deterministic order), but the drain itself is
// a teardown: use it only after measurements are collected.
func (e *Engine) Drain() {
	for len(e.live) > 0 {
		ps := e.liveProcs()
		seqs := make([]uint64, len(ps))
		for i, p := range ps {
			seqs[i] = p.spawnSeq
		}
		progress := false
		// While killing, hold dispatch still: a dying process's deferred
		// cleanup may queue wakeups, but they must run in the run-down phase
		// below (after all kills), not interleaved between kills.
		e.stopWhen = stopNow
		for i, p := range ps {
			// Skip processes that finished (or finished and were re-spawned
			// as someone else) while earlier kills ran their cleanup.
			if !e.isLive(p) || p.spawnSeq != seqs[i] {
				continue
			}
			p.killed = true
			if p.parked {
				progress = true
				e.switchTo(p)
			}
		}
		e.stopWhen = nil
		// Processes whose start events have not fired yet exit as soon as
		// those events run (they observe the kill flag on startup). Killed
		// processes may also have released resources in deferred cleanup,
		// scheduling wakeups for other parked processes; run it all down.
		if e.events.len() > 0 && len(e.live) > 0 {
			progress = true
			e.stopWhen = func() bool { return len(e.live) == 0 }
			e.drive(forever)
			e.stopWhen = nil
		}
		if !progress {
			panic("sim: Drain cannot make progress")
		}
	}
}

// Close ends the engine's life: it drains any live processes, then retires
// every pooled worker goroutine and returns once they have exited. Without
// it the workers stay parked for the life of the program — one per process
// that was ever concurrently live, for every engine ever run. The clock and
// counters stay readable; spawning or running afterwards panics. Close is
// idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.Drain()
	e.closed = true
	for _, p := range e.free {
		close(p.resume)
	}
	e.free = nil
	e.workers.Wait()
}

// stopNow brakes dispatch unconditionally (Drain's kill phase).
func stopNow() bool { return true }

func (e *Engine) isLive(p *Proc) bool {
	return p.liveIdx < len(e.live) && e.live[p.liveIdx] == p
}

func (e *Engine) liveProcs() []*Proc {
	ps := append([]*Proc(nil), e.live...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].spawnSeq < ps[j].spawnSeq })
	return ps
}

// switchTo force-resumes a parked process from the driver (Drain kills).
// The baton passes to p and comes back via driverCh once p (and any dispatch
// chain it triggers) blocks again.
func (e *Engine) switchTo(p *Proc) {
	p.parked = false
	p.parkGen++
	p.resume <- struct{}{}
	<-e.driverCh
}

// Go spawns a process. fn runs on a (pooled) goroutine, starting at the
// current virtual time, and may block with Sleep/Acquire/Wait. When fn
// returns the process ends and its worker parks for reuse.
func (e *Engine) Go(name string, fn func(p *Proc)) {
	e.GoNamed(name, "", -1, fn)
}

// GoNamed spawns a process like Go but assembles its debug name lazily from
// parts: "prefix/arg.id" (arg may be empty, id < 0 omits the suffix). Names
// are only rendered when read — on a process panic, in practice — so hot
// spawn paths avoid a fmt.Sprintf per sub-operation.
func (e *Engine) GoNamed(prefix, arg string, id int, fn func(p *Proc)) {
	if e.closed {
		panic("sim: Go on a closed engine")
	}
	p := e.getProc()
	p.namePrefix, p.nameArg, p.nameID = prefix, arg, id
	p.fn = fn
	e.procSeq++
	p.spawnSeq = e.procSeq
	p.liveIdx = len(e.live)
	e.live = append(e.live, p)
	e.seq++
	e.events.push(event{t: e.now, seq: e.seq, proc: p, gen: genStart})
}

// getProc pops a parked worker from the pool, or creates one (goroutine and
// resume channel included) when the pool is empty.
func (e *Engine) getProc() *Proc {
	if n := len(e.free); n > 0 {
		p := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		p.killed = false
		return p
	}
	return &Proc{e: e, resume: make(chan struct{}), nameID: -1}
}

// recycle removes a finished process from the live set and parks its worker
// in the pool. Runs on the worker goroutine while the engine is blocked in
// switchTo, so it needs no locking.
func (e *Engine) recycle(p *Proc) {
	last := len(e.live) - 1
	q := e.live[last]
	e.live[p.liveIdx] = q
	q.liveIdx = p.liveIdx
	e.live[last] = nil
	e.live = e.live[:last]
	p.fn = nil
	p.namePrefix, p.nameArg, p.nameID = "", "", -1
	e.free = append(e.free, p)
}

// NewRand returns a deterministic random source for model components.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
