package sim

import (
	"fmt"
	"time"
)

// Proc is a simulation process: a pooled worker goroutine interleaved with
// the engine. After its body returns the worker parks and Engine.Go hands it
// out again, so steady-state fan-out spawns no goroutines and allocates
// nothing in the engine.
type Proc struct {
	e      *Engine
	resume chan struct{}
	fn     func(p *Proc)

	// Lazily formatted debug name (see GoNamed).
	namePrefix string
	nameArg    string
	nameID     int

	spawnSeq uint64 // spawn order of the current body, for Drain determinism
	liveIdx  int    // position in Engine.live while running
	parkGen  uint64 // bumped on every resume; never reset, so stale wakeups drop
	parked   bool
	killed   bool
	started  bool // worker goroutine exists (created on first start event)

	// Intrusive wait-queue link (Resource/Latch/Signal/Waker). A parked
	// process waits on at most one primitive, so one link suffices and
	// queuing allocates nothing.
	waitNext    *Proc
	waitN       int  // units requested from a Resource
	waitGranted bool // Resource grant already applied when killed mid-wait
}

type procKilled struct{}

// loop is the worker goroutine: run one process body per resume, then park
// back into the engine's pool. After a body ends the worker still holds the
// dispatch baton, so it keeps executing events until the baton moves — and
// if the very next start event re-spawns this worker, it runs the new body
// without any handoff at all. Engine.Close closes resume, which ends the
// goroutine.
func (p *Proc) loop() {
	e := p.e
	defer e.workers.Done()
	for {
		if _, ok := <-p.resume; !ok {
			return
		}
		for {
			p.runBody()
			e.recycle(p)
			// Still holding the baton: keep dispatching. True means the
			// next start event re-spawned this very worker — run the new
			// body directly; false means the baton moved on, so block for
			// the next spawn.
			if !e.dispatch(p, true) {
				break
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

// Engine returns the engine the process runs on.
func (p *Proc) Engine() *Engine { return p.e }

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
// already have arranged one) or Drain kills it. The blocking goroutine keeps
// the dispatch baton and runs the event loop itself until its own wakeup
// surfaces or the baton has to move.
func (p *Proc) park() {
	p.parked = true
	p.e.dispatch(p, false)
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
	e := p.e
	e.seq++
	e.events.push(event{t: e.now + Time(d), seq: e.seq, proc: p, gen: p.parkGen})
	p.park()
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
