package sim

// The event queue is a concrete 4-ary min-heap of typed event records,
// ordered by (time, sequence). Compared to container/heap over an interface
// type, pushing costs no allocation (records live in the slice; sequence
// numbers make the order total, so heap-internal layout never affects pop
// order) and dispatch costs no interface calls or type assertions.

// An event is one of three kinds, encoded without a discriminant byte to
// keep the record at five machine words (40 bytes) for cheap heap sifts:
//
//   - fn event (Schedule): proc == nil, fn runs in engine context;
//   - wakeup: proc != nil, gen is the park-generation guard — stale wakeups
//     (process resumed by someone else, or killed) drop harmlessly. Wakeups
//     dominate steady-state traffic: every Sleep, Resource grant, Latch open
//     and Signal fire is one;
//   - start (Go): proc != nil, gen == genStart — first resume of a fresh
//     spawn.
type event struct {
	t    Time
	seq  uint64
	gen  uint64 // park generation guard, or genStart
	proc *Proc  // nil for fn events
	fn   func() // callback (fn events only)
}

// genStart marks a start event. A real park generation never gets there: it
// advances by one per process switch, which at current dispatch rates would
// take centuries of wall clock.
const genStart = ^uint64(0)

// eventQueue orders events by (t, seq). It splits traffic by timestamp:
// events at the current time — every wakeup and spawn, the bulk of
// steady-state traffic — go to an O(1) FIFO ring, and only future-time
// events (sleeps, schedules) pay heap sifts. The split preserves the exact
// (t, seq) order: ring entries are pushed while the clock sits at their
// timestamp, so any heap event with the same timestamp was pushed earlier
// (the clock only reaches t by popping, after which same-t pushes go to the
// ring) and holds a smaller seq; pop therefore prefers the heap whenever its
// top is due at the current time.
type eventQueue struct {
	now  *Time // the engine clock (shared)
	ring []event
	head int
	heap eventHeap
}

func (q *eventQueue) len() int { return len(q.ring) - q.head + len(q.heap) }

// headTime returns the timestamp of the next event (call only when len>0).
func (q *eventQueue) headTime() Time {
	if len(q.heap) > 0 && (q.head >= len(q.ring) || q.heap[0].t <= *q.now) {
		return q.heap[0].t
	}
	return *q.now // ring entries are always at the current time
}

func (q *eventQueue) push(ev event) {
	if ev.t == *q.now {
		q.ring = append(q.ring, ev)
		return
	}
	q.heap.push(ev)
}

func (q *eventQueue) pop() event {
	if q.head < len(q.ring) {
		// A heap event due at the current time was pushed before the clock
		// got here and outranks every ring entry by seq.
		if len(q.heap) == 0 || q.heap[0].t > *q.now {
			ev := q.ring[q.head]
			q.ring[q.head] = event{} // release proc/closure references
			q.head++
			if q.head == len(q.ring) {
				q.ring = q.ring[:0]
				q.head = 0
			}
			return ev
		}
	}
	return q.heap.pop()
}

// eventHeap is a 4-ary min-heap ordered by (t, seq); seq is unique, so the
// order is total and pop order never depends on heap-internal layout. The
// wider fan-out halves sift depth versus a binary heap and keeps each
// parent's children in one or two cache lines.
type eventHeap []event

func (h event) less(o event) bool {
	if h.t != o.t {
		return h.t < o.t
	}
	return h.seq < o.seq
}

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	*h = s
	// Sift up, moving the hole instead of swapping.
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.less(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // clear the vacated slot so it retains no proc/closure
	s = s[:n]
	*h = s
	// Sift the displaced last element down from the root.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		small := c
		for j := c + 1; j < end; j++ {
			if s[j].less(s[small]) {
				small = j
			}
		}
		if !s[small].less(last) {
			break
		}
		s[i] = s[small]
		i = small
	}
	if n > 0 {
		s[i] = last
	}
	return top
}
