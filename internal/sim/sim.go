// Package sim provides a deterministic discrete-event simulation engine
// whose steady-state hot path is allocation-free.
//
// The reproduced paper measures a 4-node, 96-core, 52-SSD Ceph cluster; this
// repository replaces that hardware with simulation, so simulator throughput
// — not simulated fidelity — bounds how large a cluster and how long a
// timeline the evaluation can afford. The engine advances a virtual clock
// through a time-ordered queue of typed event records and runs simulation
// processes as coroutines (iter.Pull) driven by the Run caller: exactly one
// of them (the driver or a single process) ever runs, so runs are
// bit-for-bit deterministic for a given seed and independent of GOMAXPROCS.
//
// Five design choices keep the hot path off the allocator and the
// scheduler:
//
//   - Events are four-word records, not boxed closures: {time, seq,
//     generation, proc}. A process wakeup — the dominant event kind (every
//     Sleep, Resource grant, Latch open and Waker wake produces one) — is
//     a {proc, generation} pair stored directly in the queue; the
//     generation guard makes stale wakeups (a process resumed by someone
//     else first, or killed by Drain) drop harmlessly. Engine.Schedule's
//     callbacks (heartbeats and phase marks: about 100 of the benchmark
//     sweep's 22.6 M events) wait in a side table and their event holds
//     the slot, so no record carries a func() word; every byte of a record
//     is paid on each push and pop.
//   - Processes are pooled. Engine.Go reuses a parked worker coroutine
//     instead of creating a fresh one; fan-out-heavy model code (an EC
//     write spawns k+m shard writers per op) churns no goroutines in steady
//     state. Process names are stored as unformatted {prefix, arg, id}
//     parts and only rendered by Name() — on panic, in practice — so
//     spawning never pays fmt.Sprintf either (GoNamed). A hold chain starts
//     on an array inside its Proc. The model pools its per-op state too, so
//     a warm simulated 4 KiB read or overwrite allocates nothing
//     (core.TestModelSteadyStateAllocs).
//   - Switches bypass the scheduler. A process that blocks runs the
//     dispatch loop itself and keeps going when its own wakeup is next (no
//     switch at all); otherwise it yields to the driver, which resumes the
//     next process. Both are coroswitch calls: the current thread jumps
//     straight to the target goroutine, with no ready/wakep and no global
//     scheduler lock. The channel baton this replaced took chansend → ready
//     → wakep → sched.lock on 96 % of the 22.5 M events of the benchmark
//     sweep, and two engines running side by side contended on that lock.
//   - Model steps run in engine context. A CPU burst, a NIC serialization
//     and a device slot are each Acquire, Sleep, Release, and resuming a
//     process to run the one line between two waits costs two switches.
//     Proc.Hold takes a run of holds and sleeps as data (Stage); dispatch
//     runs each step, pushing exactly the events the triplets would, and
//     only the chain's end resumes the process. On the smoke sweep
//     processes resume 4.15 M times instead of 10.13 M (10.1 M events).
//   - Shard transfers need no coroutine. A process that is only a hold
//     chain (a shard request's pulls and backoffs, a shard write's push
//     and commit) is spawned with Engine.GoChain: its Done callbacks run
//     in engine context and append the next stages with Proc.Then, and it
//     ends with its chain, never resumed. On the benchmark sweep the
//     driver resumes processes 1.35 M times instead of 7.77 M.
//
// Processes block on virtual time (Sleep), on counted resources (Resource),
// and on synchronization primitives (Latch, Waker). Waiting
// processes are linked into intrusive per-primitive queues (a parked process
// waits on at most one thing), so blocking allocates nothing. Model
// components such as CPUs, NICs, SSDs and PG locks are built from these
// primitives in the other internal packages.
//
// An engine's pooled workers are real (suspended) goroutines, and everything
// a process body captured stays reachable through them: call Engine.Close
// when a run is over (it drains what is still live and stops every worker
// coroutine), or every engine a program ever ran stays pinned in memory.
//
// One engine uses one core. A process that calls runtime.Goexit (t.Fatal
// in a test) ends the driver goroutine too: iter.Pull passes the Goexit on
// to the caller of next.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"
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
// Run/RunUntil caller) or the process that just blocked. Each coroutine
// process is resumed by the driver alone: a process whose own wakeup is the
// next event keeps running (no switch at all — the common case for a
// process sleeping through consecutive model delays); otherwise it names
// the next process in handoff and yields, and the driver resumes that one.
// A cross-process switch is two coroutine switches. Exactly one goroutine
// ever runs, so determinism is unaffected by where the loop happens to run.
type Engine struct {
	now      Time
	seq      uint64
	procSeq  uint64
	limit    Time // dispatch bound of the current drive
	driving  bool // a drive is active (guards against re-entry)
	events   eventQueue
	fns      []func()    // Schedule callbacks by slot (nil when free)
	fnFree   []uint64    // free slots of fns
	handoff  *Proc       // process a yielding process asks the driver to resume
	stopWhen func() bool // optional extra dispatch brake (RunProc, Drain)
	live     []*Proc     // live processes, unordered (swap-removed); see spawnSeq
	free     []*Proc     // parked worker coroutines ready for reuse
	chains   []*Proc     // finished chain-only processes ready for reuse
	executed uint64
	fatal    any
	closed   bool
	traced   func(event) // sees every dispatched event (tests)
}

// forever is the dispatch bound of an unbounded Run.
const forever = Time(1<<63 - 1)

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.events.now, e.events.slab = &e.now, make([]calNode, 1, 64)
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
	var i uint64
	if n := len(e.fnFree); n > 0 {
		i = e.fnFree[n-1]
		e.fnFree = e.fnFree[:n-1]
		e.fns[i] = fn
	} else {
		i = uint64(len(e.fns))
		e.fns = append(e.fns, fn)
	}
	e.seq++
	e.events.push(event{t: e.now + Time(delay), seq: e.seq, gen: i})
}

// after schedules a resume of p d from now, for its current park.
func (e *Engine) after(d time.Duration, p *Proc) {
	e.seq++
	e.events.push(event{t: e.now + Time(d), seq: e.seq, proc: p, gen: p.parkGen})
}

// wake schedules a resume of p at the current time. The wakeup is dropped if
// p has been resumed by someone else in the meantime (generation guard), so
// multiple wakers cannot double-resume a process.
func (e *Engine) wake(p *Proc) {
	e.seq++
	e.events.push(event{t: e.now, seq: e.seq, proc: p, gen: p.parkGen})
}

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
// the event queue, a stop predicate or a process panic ends it. It resumes
// the process each event names; when that process yields it leaves the next
// one in handoff, or nil once no event is ready.
//
// Drives do not nest: a Schedule callback or process re-entering
// Run/RunUntil/RunProc would clobber the active bound and, from a process,
// resume coroutines from inside one of them — so re-entry panics loudly
// instead. A process may drive a different engine.
func (e *Engine) drive(limit Time) {
	if e.driving {
		panic("sim: Run/RunUntil/RunProc re-entered from engine or process context")
	}
	if e.closed {
		panic("sim: Run/RunUntil/RunProc on a closed engine")
	}
	e.driving = true
	e.limit = limit
	for q := e.dispatch(); q != nil; q, e.handoff = e.handoff, nil {
		q.next()
	}
	e.driving = false
	if e.fatal != nil {
		panic(e.fatal)
	}
}

// runFn executes a Schedule callback. A panic becomes the engine fatal and
// surfaces verbatim from the driver's Run — it must not unwind (and be
// attributed to) whatever process happens to be running the dispatch loop.
func (e *Engine) runFn(fn func()) {
	defer func() {
		if r := recover(); r != nil && e.fatal == nil {
			e.fatal = r
		}
	}()
	fn()
}

// step runs q's chain in engine context (after start, if set) until a stage
// waits, and reports whether it ended. Like runFn, it turns a panic into the
// engine fatal, named for q, not for the process running the dispatch loop.
func (e *Engine) step(q *Proc, start func(*Proc)) (ended bool) {
	defer func() {
		if r := recover(); r != nil && e.fatal == nil {
			e.fatal = fmt.Sprintf("sim: process %q panicked: %v", q.Name(), r)
		}
	}()
	if start != nil {
		start(q)
	}
	return q.advance()
}

// dispatch executes ready events on the calling goroutine — the driver or
// the process that just blocked or finished — until one resumes a process,
// and returns that process (marked running), or nil once no event is ready.
// The caller runs it: directly when it is the caller itself, otherwise by
// resuming its coroutine from the driver.
func (e *Engine) dispatch() *Proc {
	for e.fatal == nil && (e.stopWhen == nil || !e.stopWhen()) {
		ev, ok := e.events.popBefore(e.limit)
		if !ok {
			break
		}
		if ev.t < e.now {
			panic(fmt.Sprintf("sim: time went backwards: %v -> %v", e.now, ev.t))
		}
		e.now = ev.t
		e.executed++
		if e.traced != nil {
			e.traced(ev)
		}
		q := ev.proc
		switch {
		case q == nil: // fn event: free its slot first, so fn may reuse it
			fn := e.fns[ev.gen]
			e.fns[ev.gen] = nil
			e.fnFree = append(e.fnFree, ev.gen)
			e.runFn(fn)
			continue
		case ev.gen == genStart:
			if q.chained {
				q.parkGen++
				q.parked = true // on its chain, from here to its end
				if q.killed || e.step(q, q.fn) {
					e.recycle(q)
				}
				continue
			}
			if q.next == nil {
				// The worker coroutine is created on first dispatch, not at
				// Go time, so engines built but never run own none.
				q.next, q.stop = iter.Pull(q.loop)
			}
		default: // wakeup
			if !q.parked || q.parkGen != ev.gen {
				continue // stale wakeup: resumed by someone else, or killed
			}
			if len(q.chain) > 0 {
				q.parkGen++ // a chain step: resume only once the chain ends
				if !e.step(q, nil) {
					continue
				}
				if q.chained {
					e.recycle(q) // no coroutine to resume: the process ends
					continue
				}
			}
			q.parked = false
		}
		q.parkGen++
		return q
	}
	return nil
}

// Drain kills every live process so their workers park back in the pool,
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

// Close ends the engine's life: it drains any live processes, then stops
// every pooled worker coroutine and returns once they have exited. Without
// it the workers stay suspended for the life of the program — one per
// process that was ever concurrently live, for every engine ever run. The
// clock and counters stay readable; spawning or running afterwards panics.
// Close is idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.Drain()
	e.closed = true
	for _, p := range e.free {
		p.stop() // only a started worker ever reaches the pool
	}
	e.free = nil
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

// switchTo force-resumes a parked process from the driver (Drain kills),
// out of event order; the guard bump drops its pending wakeup. Drain holds
// dispatch still, so p yields straight back with no handoff once it has
// unwound and parked its worker. A chain-only process ends as Hold's
// recover would end it.
func (e *Engine) switchTo(p *Proc) {
	p.parked = false
	p.parkGen++
	if p.chained {
		p.dropChain()
		e.recycle(p)
		return
	}
	p.next()
}

// Go spawns a process. fn runs on a (pooled) coroutine, starting at the
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
	e.spawn(&e.free, prefix, arg, id, fn)
}

// GoChain spawns a process that is only a hold chain, named like GoNamed.
// At its start event (Go's event and seq) start runs in engine context and
// appends the first stages with Then; the process ends with its chain, and
// neither start nor a Done may block. Drain kills it as Hold's recover would
// (killed before its start event, it ends at that event).
func (e *Engine) GoChain(prefix, arg string, id int, start func(p *Proc)) {
	e.spawn(&e.chains, prefix, arg, id, start)
}

// spawn takes a Proc from pool and queues its start event.
func (e *Engine) spawn(pool *[]*Proc, prefix, arg string, id int, fn func(p *Proc)) {
	if e.closed {
		panic("sim: Go on a closed engine")
	}
	p := e.getProc(pool)
	p.namePrefix, p.nameArg, p.nameID = prefix, arg, id
	p.fn = fn
	e.procSeq++
	p.spawnSeq = e.procSeq
	p.liveIdx = len(e.live)
	e.live = append(e.live, p)
	e.seq++
	e.events.push(event{t: e.now, seq: e.seq, proc: p, gen: genStart})
}

// chainSlab is how many chain-only processes are allocated at once: a
// fan-out-heavy model's pool reaches new highs long after it is warm.
const chainSlab = 64

// getProc pops a Proc from pool (e.free or e.chains), or creates one when
// it is empty; a worker's coroutine is created by its first start event.
func (e *Engine) getProc(pool *[]*Proc) *Proc {
	if len(*pool) == 0 {
		n := 1
		if pool == &e.chains {
			n = chainSlab
		}
		slab := make([]Proc, n)
		for i := range slab {
			slab[i] = Proc{e: e, nameID: -1, pool: pool, chained: pool == &e.chains}
			slab[i].chain = slab[i].chainBuf[:0]
			*pool = append(*pool, &slab[i])
		}
	}
	p := (*pool)[len(*pool)-1]
	*pool = (*pool)[:len(*pool)-1]
	p.killed = false
	return p
}

// recycle removes a finished process from the live set and returns it to
// its pool. Runs on the worker coroutine or, for a chain-only process, in
// engine context: the only goroutine running, so it needs no locking.
func (e *Engine) recycle(p *Proc) {
	last := len(e.live) - 1
	q := e.live[last]
	e.live[p.liveIdx] = q
	q.liveIdx = p.liveIdx
	e.live[last] = nil
	e.live = e.live[:last]
	p.fn = nil
	p.namePrefix, p.nameArg, p.nameID = "", "", -1
	p.parked = false // a chain-only process ends parked on its chain
	*p.pool = append(*p.pool, p)
}

// NewRand returns a deterministic random source for model components.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
