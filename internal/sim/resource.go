package sim

import "time"

// Resource is a counted resource with a FIFO wait queue: a semaphore in
// virtual time. A Resource with capacity 1 is a mutex (used for PG locks); a
// Resource with capacity N models N servers (CPU cores, SSD queue slots).
// Waiters are linked intrusively through their Proc, so contention allocates
// nothing.
type Resource struct {
	e        *Engine
	name     string
	capacity int
	inUse    int
	waiters  procList // FIFO
	queued   int

	// Queueing statistics.
	totalAcquires int64
	totalWaits    int64 // acquires that had to queue
}

// NewResource creates a resource with the given capacity.
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{e: e, name: name, capacity: capacity}
}

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int { return r.capacity }

// Acquire takes n units, blocking the process in FIFO order until they are
// available. It panics if n exceeds the capacity (the request could never be
// satisfied).
func (r *Resource) Acquire(p *Proc, n int) {
	if r.acquire(p, n) {
		return
	}
	defer func() {
		if rec := recover(); rec != nil {
			r.cancel(p, n)
			panic(rec)
		}
	}()
	p.park()
}

// acquire takes n units if the queue is empty and they are free, or queues
// p for them and reports false; Release grants them with a wakeup.
func (r *Resource) acquire(p *Proc, n int) bool {
	if n <= 0 || n > r.capacity {
		panic("sim: invalid acquire count")
	}
	r.totalAcquires++
	if r.waiters.empty() && r.inUse+n <= r.capacity {
		r.inUse += n
		return true
	}
	r.totalWaits++
	p.waitN = n
	p.waitGranted = false
	r.waiters.push(p)
	r.queued++
	return false
}

// cancel undoes the claim of a process killed (Engine.Drain) while queued
// for n units or granted them but not yet resumed.
func (r *Resource) cancel(p *Proc, n int) {
	if p.waitGranted {
		r.Release(n)
	} else if r.waiters.remove(p) {
		r.queued--
	}
}

// Release returns n units and wakes queued waiters in FIFO order. It may be
// called from process or engine context.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic("sim: invalid release count")
	}
	r.inUse -= n
	for r.waiters.head != nil && r.inUse+r.waiters.head.waitN <= r.capacity {
		w := r.waiters.pop()
		r.queued--
		r.inUse += w.waitN
		w.waitGranted = true
		r.e.wake(w)
	}
}

// Latch is a countdown synchronizer: Wait blocks until Done has been called
// count times. It is the join primitive for fan-out sub-operations (e.g. a
// primary OSD waiting for replica or shard-write acknowledgements).
type Latch struct {
	e       *Engine
	count   int
	waiters procList
}

// NewLatch creates a latch that opens after count Done calls. count zero
// creates an already-open latch.
func NewLatch(e *Engine, count int) *Latch {
	if count < 0 {
		panic("sim: negative latch count")
	}
	return &Latch{e: e, count: count}
}

// Done decrements the latch, waking all waiters when it reaches zero.
// Calling Done on an open latch panics (it indicates a fan-in bug).
func (l *Latch) Done() {
	if l.count == 0 {
		panic("sim: Done on open latch")
	}
	l.count--
	if l.count == 0 {
		for p := l.waiters.pop(); p != nil; p = l.waiters.pop() {
			l.e.wake(p)
		}
	}
}

// Wait blocks the process until the latch opens.
func (l *Latch) Wait(p *Proc) {
	if l.count == 0 {
		return
	}
	l.waiters.push(p)
	defer func() {
		if rec := recover(); rec != nil {
			l.waiters.remove(p) // killed while queued
			panic(rec)
		}
	}()
	p.park()
}

// Waker is a reusable wakeup for one long-lived process: the process parks
// with Wait, any engine- or process-context code releases it with Wake, and
// the pair can repeat round after round (unlike a one-shot Latch). Wakes
// with no process waiting are counted, so no round is ever lost: a process
// that falls behind observes one immediate Wait return per missed Wake.
// Periodic daemons (OSD heartbeats) use one Waker per process to be ticked
// by a single scheduled callback instead of respawning per interval.
type Waker struct {
	e       *Engine
	p       *Proc
	pending int
}

// NewWaker creates a Waker with no process attached.
func NewWaker(e *Engine) *Waker { return &Waker{e: e} }

// Wait parks the process until the next Wake. If Wakes already arrived
// since the last Wait, one is consumed and Wait returns immediately.
func (w *Waker) Wait(p *Proc) {
	if w.pending > 0 {
		w.pending--
		return
	}
	w.p = p
	defer func() {
		if rec := recover(); rec != nil {
			w.p = nil // killed while waiting
			panic(rec)
		}
	}()
	p.park()
}

// WaitTimeout parks the process until the next Wake or until d of virtual
// time passes, whichever comes first, reporting true for a Wake and false
// for a timeout. Pending Wakes are consumed immediately, like Wait. The
// timer event carries the current park generation, so whichever resume
// loses the race is dropped as stale — no spurious wakeup leaks into a
// later wait. On timeout the process is detached, so a subsequent Wake is
// counted as pending for the next Wait instead of waking anyone.
func (w *Waker) WaitTimeout(p *Proc, d time.Duration) bool {
	if w.pending > 0 {
		w.pending--
		return true
	}
	if d <= 0 {
		return false
	}
	w.e.after(d, p)
	w.p = p
	defer func() {
		if rec := recover(); rec != nil {
			w.p = nil // killed while waiting
			panic(rec)
		}
	}()
	p.park()
	if w.p == p {
		w.p = nil // timer won: detach before anyone Wakes us
		return false
	}
	return true
}

// Wake releases the waiting process (or counts the wake if none waits yet).
func (w *Waker) Wake() {
	if w.p != nil {
		w.e.wake(w.p)
		w.p = nil
		return
	}
	w.pending++
}
