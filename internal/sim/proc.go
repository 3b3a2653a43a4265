package sim

import (
	"fmt"
	"time"
)

// Proc is a simulation process: a pooled worker coroutine interleaved with
// the engine, or a bare hold chain (Engine.GoChain). After it ends it goes
// back to its pool, so steady-state fan-out spawns no goroutines and
// allocates nothing in the engine.
type Proc struct {
	e     *Engine
	fn    func(p *Proc)
	next  func() (struct{}, bool) // resumes the coroutine (driver only); nil until started
	stop  func()                  // ends a worker suspended between bodies (Close)
	yield func(struct{}) bool     // suspends the coroutine back to the driver

	// Lazily formatted debug name (see GoNamed).
	namePrefix string
	nameArg    string
	nameID     int

	spawnSeq uint64 // spawn order of the current body, for Drain determinism
	liveIdx  int    // position in Engine.live while running
	parkGen  uint64 // bumped on every resume; never reset, so stale wakeups drop
	parked   bool
	killed   bool
	chained  bool     // chain-only (GoChain): fn is its start body, no coroutine
	pool     *[]*Proc // where it goes when it ends: Engine.free or chains

	// Intrusive wait-queue link (Resource/Latch/Waker). A parked
	// process waits on at most one primitive, so one link suffices and
	// queuing allocates nothing.
	waitNext    *Proc
	waitN       int  // units requested from a Resource
	waitGranted bool // Resource grant already applied when killed mid-wait

	// The running chain (empty when none; then stage and phase are zero),
	// its stage and phase. chain starts on chainBuf, which holds any chain
	// the model builds (a shard transfer's legs are up to 8 stages; Then
	// drops finished stages before growing it), so a Proc never allocates one.
	chain    []Stage
	chainBuf [10]Stage
	stage    int
	phase    int8
}

type procKilled struct{}

// loop is the worker coroutine: run one process body per start, then park
// back into the engine's pool. After a body ends the worker keeps executing
// events until one resumes a process — and if that is a start event
// re-spawning this very worker, it runs the new body without any switch at
// all; otherwise it hands off and yields until its next spawn.
// Engine.Close stops the coroutine (yield returns false), which ends it.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	e := p.e
	for {
		p.runBody()
		e.recycle(p)
		if q := e.dispatch(); q != p {
			e.handoff = q
			if !yield(struct{}{}) {
				return
			}
		}
	}
}

func (p *Proc) runBody() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				p.e.fatal = fmt.Sprintf("sim: process %q panicked: %v", p.Name(), r)
			}
		}
	}()
	if p.killed {
		panic(procKilled{})
	}
	p.fn(p)
}

// Name renders the process name given to Go/GoNamed.
func (p *Proc) Name() string {
	switch {
	case p.nameArg == "" && p.nameID < 0:
		return p.namePrefix
	case p.nameID < 0:
		return p.namePrefix + "/" + p.nameArg
	case p.nameArg == "":
		return fmt.Sprintf("%s.%d", p.namePrefix, p.nameID)
	default:
		return fmt.Sprintf("%s/%s.%d", p.namePrefix, p.nameArg, p.nameID)
	}
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// park suspends the process until its wakeup event fires (the caller must
// already have arranged one) or Drain kills it. The blocking process runs
// the event loop itself: when its own wakeup is next it simply returns;
// otherwise it hands the next process to the driver and yields until the
// driver resumes it.
func (p *Proc) park() {
	p.parked = true
	e := p.e
	if q := e.dispatch(); q != p {
		e.handoff = q
		p.yield(struct{}{})
	}
	if p.killed {
		panic(procKilled{})
	}
}

// Sleep suspends the process for d of virtual time. Sleep(0) is a no-op.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	p.e.after(d, p)
	p.park()
}

// Stage is one step of a hold chain (Proc.Hold, Engine.GoChain): hold N
// units of Res for D (with Res nil, sleep D), then call Done with it and the
// stages after it — Done may set a later stage's D from state at that
// instant, or append stages with Proc.Then and then not touch rest — in
// engine context, so Done must not block. With D == Keep the stage keeps
// its units past its end, for a later step to release.
type Stage struct {
	Res  *Resource
	N    int
	D    time.Duration
	Done func(rest []Stage)
	Arg  int64 // free for Done
}

const Keep time.Duration = -1 // the D of a stage whose units a later step releases

// A chain stage's phase: what it does next (acquire, start D, release).
const (
	holdTake = iota
	holdTimed
	holdDone
)

// Hold runs stages as one blocking call, with the events, Resource bookkeeping
// and Done calls of Res.Acquire(p, N); p.Sleep(D); Res.Release(N); Done per
// stage: dispatch runs each step while the process stays parked, and only the
// chain's end resumes it. Killed by Drain, the process leaves a queue it
// waits in or gives back units just granted, as Acquire does; killed while
// holding, it releases nothing, as Sleep does.
func (p *Proc) Hold(stages ...Stage) {
	p.chain = append(p.chain[:0], stages...)
	p.stage, p.phase = 0, holdTake
	if p.advance() {
		return
	}
	defer func() {
		if rec := recover(); rec != nil {
			p.dropChain()
			panic(rec)
		}
	}()
	p.park()
}

// Then appends stages to the running chain, from a GoChain start body or a
// stage's Done. To stay in its array the chain may first drop the stages
// already done, so a Done must not touch its rest after Then.
func (p *Proc) Then(stages ...Stage) {
	if len(p.chain)+len(stages) > cap(p.chain) && p.stage > 0 {
		n := copy(p.chain, p.chain[p.stage:])
		p.chain, p.stage = p.chain[:n], 0
	}
	p.chain = append(p.chain, stages...)
}

// dropChain ends a killed process's chain: a claim queued or just granted is
// cancelled; units held stay held.
func (p *Proc) dropChain() {
	if len(p.chain) > 0 && p.phase == holdTimed {
		s := &p.chain[p.stage]
		s.Res.cancel(p, s.N)
	}
	p.chain, p.stage, p.phase = p.chain[:0], 0, holdTake
}

// advance runs the chain until a step waits on an event (a grant or a stage's
// time) and reports whether it ended: in the process from Hold, then in
// engine context.
func (p *Proc) advance() bool {
	for p.stage < len(p.chain) {
		s := &p.chain[p.stage]
		switch p.phase {
		case holdTake:
			p.phase = holdTimed
			if s.Res != nil && !s.Res.acquire(p, s.N) {
				return false // queued: the grant's wakeup comes back here
			}
			fallthrough
		case holdTimed:
			p.phase = holdDone
			if s.D > 0 {
				p.e.after(s.D, p)
				return false
			}
			fallthrough
		case holdDone:
			if s.Res != nil && s.D != Keep {
				s.Res.Release(s.N)
			}
			if s.Done != nil {
				s.Done(p.chain[p.stage:]) // may move the chain (Then)
			}
			p.stage++
			p.phase = holdTake
		}
	}
	p.chain, p.stage = p.chain[:0], 0
	return true
}

// SleepUntil suspends the process until virtual time t (no-op if t has
// passed).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.e.now {
		return
	}
	p.Sleep(time.Duration(t - p.e.now))
}

// procList is an intrusive FIFO queue of parked processes, linked through
// Proc.waitNext. Enqueuing costs no allocation; a process sits in at most
// one list at a time (it is parked while queued).
type procList struct {
	head, tail *Proc
}

func (l *procList) empty() bool { return l.head == nil }

func (l *procList) push(p *Proc) {
	p.waitNext = nil
	if l.tail == nil {
		l.head = p
	} else {
		l.tail.waitNext = p
	}
	l.tail = p
}

func (l *procList) pop() *Proc {
	p := l.head
	if p == nil {
		return nil
	}
	l.head = p.waitNext
	if l.head == nil {
		l.tail = nil
	}
	p.waitNext = nil
	return p
}

// remove unlinks p if present (a process killed while queued). Reports
// whether p was found.
func (l *procList) remove(p *Proc) bool {
	var prev *Proc
	for q := l.head; q != nil; prev, q = q, q.waitNext {
		if q != p {
			continue
		}
		if prev == nil {
			l.head = q.waitNext
		} else {
			prev.waitNext = q.waitNext
		}
		if l.tail == q {
			l.tail = prev
		}
		q.waitNext = nil
		return true
	}
	return false
}
