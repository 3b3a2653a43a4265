package service

import (
	"sync"
	"time"
)

// BreakerState is one circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: the OSD is healthy, ops flow normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: the cooldown elapsed and exactly one probe op is
	// allowed through; its outcome decides closed vs open.
	BreakerHalfOpen
	// BreakerOpen: the OSD is ejected from the data path until the
	// cooldown elapses. Reads reconstruct around it, writes degrade.
	BreakerOpen
)

// String renders the state for /v1/osds and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// breakerEWMAAlpha weights the exponentially-decayed failure-rate
// estimate; breakerEWMATrip is the rate that opens the circuit once at
// least breakerEWMAMinSamples outcomes have been observed. The EWMA
// criterion catches OSDs failing most-but-not-all ops (a gray failure the
// consecutive counter alone misses when occasional successes reset it).
const (
	breakerEWMAAlpha      = 0.3
	breakerEWMATrip       = 0.85
	breakerEWMAMinSamples = 5
)

// Breaker is a per-OSD circuit breaker: consecutive-failure or EWMA
// failure-rate trip → open (the gateway stops sending ops) → after a
// cooldown, half-open (one probe) → closed on success, open again on
// failure. All methods take an explicit now so tests are deterministic.
// It is also the gateway's only per-OSD health record: /v1/osds and
// /v1/status report its state, failure run and last error (Health).
type Breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that trip; <=0 disables
	cooldown  time.Duration // open → half-open delay

	state    BreakerState
	consec   int     // failures since the last success, in any state
	lastErr  string  // cause of the latest failure; "" after a success
	ewma     float64 // decayed failure rate (1=fail)
	samples  int
	openedAt time.Time
	probing  bool      // half-open probe in flight
	probeAt  time.Time // when the in-flight probe was admitted

	onTrip func() // optional trip hook (metrics)
}

// NewBreaker builds a breaker tripping after threshold consecutive
// failures (or a sustained EWMA failure rate), staying open for cooldown.
// threshold <= 0 disables the breaker entirely (Allow always true).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether an op may be sent to this OSD at time now. In the
// open state it returns false until the cooldown elapses, then admits
// exactly one probe (half-open); further calls return false until the
// probe's outcome is recorded — or, if the probe has been outstanding for
// a full cooldown without an outcome (it was cancelled without being
// scored, e.g. by a client disconnect), a replacement probe is admitted
// so the breaker can never wedge half-open forever.
func (b *Breaker) Allow(now time.Time) bool {
	if b == nil || b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		b.probeAt = now
		return true
	case BreakerHalfOpen:
		if b.probing && now.Sub(b.probeAt) < b.cooldown {
			return false
		}
		b.probing = true
		b.probeAt = now
		return true
	}
	return true
}

// Record feeds one real op outcome observed against the OSD at time now.
// Cancelled hedge losers must NOT be recorded (truthful scoring).
func (b *Breaker) Record(ok bool, now time.Time) { b.record(ok, nil, now) }

// record is Record with the failure's cause kept for Health.
func (b *Breaker) record(ok bool, cause error, now time.Time) {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	fail := 0.0
	if ok {
		b.consec, b.lastErr = 0, ""
	} else {
		fail = 1.0
		b.consec++
		if cause != nil {
			b.lastErr = cause.Error()
		}
	}
	if b.samples == 0 {
		b.ewma = fail
	} else {
		b.ewma = breakerEWMAAlpha*fail + (1-breakerEWMAAlpha)*b.ewma
	}
	b.samples++

	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		if ok {
			b.state = BreakerClosed
			b.ewma = 0
			b.samples = 0
		} else {
			b.trip(now)
		}
	case BreakerClosed:
		if !ok && (b.consec >= b.threshold ||
			(b.samples >= breakerEWMAMinSamples && b.ewma >= breakerEWMATrip)) {
			b.trip(now)
		}
	case BreakerOpen:
		// Late result from an op admitted before the trip; a success does
		// not close an open circuit (the probe does), a failure re-arms
		// the cooldown.
		if !ok {
			b.openedAt = now
		}
	}
}

// trip moves to open; caller holds b.mu.
func (b *Breaker) trip(now time.Time) {
	b.state = BreakerOpen
	b.openedAt = now
	b.probing = false
	if b.onTrip != nil {
		b.onTrip()
	}
}

// State returns the current position (open may still be reported briefly
// after the cooldown elapsed — the transition happens on the next Allow).
func (b *Breaker) State() BreakerState {
	if b == nil || b.threshold <= 0 {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Health returns the run of failures since the last success and the
// latest failure's cause ("" once an op has succeeded again).
func (b *Breaker) Health() (fails int, lastErr string) {
	if b == nil || b.threshold <= 0 {
		return 0, ""
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consec, b.lastErr
}

// FailureRate returns the EWMA failure-rate estimate in [0,1].
func (b *Breaker) FailureRate() float64 {
	if b == nil || b.threshold <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ewma
}
