package sim

import "math/bits"

// An event is one of three kinds, encoded without a discriminant byte to
// keep the record at four machine words (32 bytes):
//
//   - fn event (Schedule): proc == nil, gen is the callback's slot in the
//     engine's fns table; the callback runs in engine context;
//   - wakeup: proc != nil, gen is the park-generation guard — stale wakeups
//     (process resumed by someone else, or killed) drop harmlessly. Every
//     Sleep, Resource grant, hold-chain step, Latch open and Waker wake
//     is one;
//   - start (Go): proc != nil, gen == genStart — first resume of a fresh
//     spawn.
type event struct {
	t    Time
	seq  uint64
	gen  uint64 // park generation guard, genStart, or fns slot (fn events)
	proc *Proc  // nil for fn events
}

// genStart marks a start event. A real park generation never gets there: it
// advances by one per process switch, which at current dispatch rates would
// take centuries of wall clock.
const genStart = ^uint64(0)

// The calendar window is calSlots slots of 2^slotBits ns (about 1 ms).
const (
	slotBits = 10
	calSlots = 1 << 10
	calMask  = calSlots - 1
)

// calNode is an event and the slab index of the next in its list (0 ends it).
type calNode struct {
	ev   event
	next int32
}

// eventQueue orders events by (t, seq) in three tiers: a FIFO ring of the
// events pushed at the current time (grants, signals, spawns); a calendar of
// the calSlots slots from base, the slot of the last popped event, which
// takes 81 % of pushes on the smoke sweep (all future-time pushes but 1 in
// 8,000), each slot a (t, seq)-ordered list threaded through one slab, found
// by a bitmap scan; and a far heap of later events, which move into the
// calendar as pops advance base.
//
// The order is exact. A calendar event at the current time was pushed before
// any ring entry (so it holds a smaller seq) and heads slot base, since the
// clock got there by popping from it. Far events lie beyond all calendar
// events: base moves only on a pop, which migrates what the window newly
// covers. base never passes the last popped slot — popBefore finds the head
// first and leaves the window where it is when the head lies past its
// bound — so RunUntil's clock never falls below it and no push lands behind
// the window.
type eventQueue struct {
	now  *Time // the engine clock (shared)
	ring []event
	head int

	base   int64 // absolute slot (t >> slotBits) of the window's first slot
	occ    [calSlots / 64]uint64
	first  [calSlots]int32 // slot list heads (slab indices; 0 = empty)
	last   [calSlots]int32 // slot list tails
	slab   []calNode       // slab[0] is the sentinel
	free   int32           // free-list head
	queued int             // events in the calendar
	far    eventHeap
}

func (q *eventQueue) len() int { return len(q.ring) - q.head + q.queued + len(q.far) }

// dueNow reports whether the calendar holds an event at the current time.
func (q *eventQueue) dueNow() bool {
	h := q.first[q.base&calMask]
	return int64(*q.now)>>slotBits == q.base && h != 0 && q.slab[h].ev.t == *q.now
}

func (q *eventQueue) push(ev event) {
	if ev.t == *q.now {
		q.ring = append(q.ring, ev)
		return
	}
	if s := int64(ev.t) >> slotBits; s-q.base < calSlots {
		q.insert(s&calMask, ev)
		return
	}
	q.far.push(ev)
}

// popBefore removes and returns the next event if it is due by limit, and
// reports whether it did.
func (q *eventQueue) popBefore(limit Time) (event, bool) {
	if q.head < len(q.ring) && !q.dueNow() {
		if *q.now > limit { // ring entries are always at the current time
			return event{}, false
		}
		ev := q.ring[q.head]
		q.ring[q.head] = event{} // release the proc reference
		q.head++
		if q.head == len(q.ring) {
			q.ring = q.ring[:0]
			q.head = 0
		}
		return ev, true
	}
	if q.queued == 0 {
		if len(q.far) == 0 || q.far[0].t > limit {
			return event{}, false
		}
		q.advance(int64(q.far[0].t) >> slotBits)
	}
	k := q.scan()
	i := q.first[k]
	nd := &q.slab[i]
	if nd.ev.t > limit {
		return event{}, false
	}
	ev := nd.ev
	q.first[k] = nd.next
	if nd.next == 0 {
		q.occ[k>>6] &^= 1 << (k & 63)
	}
	*nd = calNode{next: q.free} // release the proc reference
	q.free = i
	q.queued--
	if s := int64(ev.t) >> slotBits; s != q.base {
		q.advance(s)
	}
	return ev, true
}

// insert links ev into window slot k in (t, seq) order.
func (q *eventQueue) insert(k int64, ev event) {
	i := q.free
	if i != 0 {
		q.free = q.slab[i].next
		q.slab[i] = calNode{ev: ev}
	} else {
		i = int32(len(q.slab))
		q.slab = append(q.slab, calNode{ev: ev})
	}
	q.queued++
	h := q.first[k]
	switch {
	case h == 0:
		q.first[k], q.last[k] = i, i
		q.occ[k>>6] |= 1 << (k & 63)
	case !ev.less(q.slab[q.last[k]].ev):
		q.slab[q.last[k]].next = i
		q.last[k] = i
	case ev.less(q.slab[h].ev):
		q.slab[i].next = h
		q.first[k] = i
	default: // a successor outranks ev
		j := h
		for !ev.less(q.slab[q.slab[j].next].ev) {
			j = q.slab[j].next
		}
		q.slab[i].next = q.slab[j].next
		q.slab[j].next = i
	}
}

// scan returns the window index of the first occupied slot at or after base,
// circularly: base's word comes round again, whole, past the window's end
// (call only when the calendar is not empty).
func (q *eventQueue) scan() int64 {
	k := q.base & calMask
	w := k >> 6
	b := q.occ[w] &^ (1<<(k&63) - 1) // base's word, from base on
	for b == 0 {
		w = (w + 1) & (calSlots/64 - 1)
		b = q.occ[w]
	}
	return w<<6 + int64(bits.TrailingZeros64(b))
}

// advance moves the window to start at slot s (a slot being popped) and
// moves the far events it now covers into the calendar.
func (q *eventQueue) advance(s int64) {
	q.base = s
	for len(q.far) > 0 && int64(q.far[0].t)>>slotBits-s < calSlots {
		ev := q.far.pop()
		q.insert(int64(ev.t)>>slotBits&calMask, ev)
	}
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
	s[n] = event{} // clear the vacated slot so it retains no proc
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
