package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// errCircuitOpen marks a shard op short-circuited by an open breaker:
// the OSD was never contacted. Not retryable; reads reconstruct around
// it, writes degrade.
var errCircuitOpen = errors.New("service: circuit breaker open")

// transient reports whether a shard-op error is worth retrying: injected
// faults, per-shard deadline expiry and transport hiccups are; a definite
// down signal (ErrOSDDown), a missing shard, a cancelled parent request
// and a skipped (breaker-open) op are not.
func transient(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, ErrNotFound),
		errors.Is(err, ErrOSDDown),
		errors.Is(err, errCircuitOpen),
		errors.Is(err, context.Canceled):
		return false
	}
	return true
}

// osdPath is everything the gateway holds per OSD: the fault-injectable
// store, the circuit breaker that is also the OSD's health record, and
// the one series that is per OSD. Every shard PUT, GET and DELETE goes
// through do.
type osdPath struct {
	gw      *Gateway // shard deadline, retry schedule, fixed-name series
	store   *FaultStore
	breaker *Breaker
	state   *Gauge // ecgate_breaker_state{osd="<id>"}
}

// FaultStore returns OSD osd's fault-injection wrapper (admin surface and
// tests).
func (g *Gateway) FaultStore(osd int) *FaultStore { return g.osds[osd].store }

// Breaker returns OSD osd's circuit breaker.
func (g *Gateway) Breaker(osd int) *Breaker { return g.osds[osd].breaker }

// FaultStatuses lists every OSD's injection spec and stats (/v1/faults).
func (g *Gateway) FaultStatuses() []FaultStatus {
	out := make([]FaultStatus, len(g.osds))
	for i := range g.osds {
		f := g.osds[i].store
		out[i] = FaultStatus{OSD: i, Spec: f.Fault(), Stats: f.FaultStats()}
	}
	return out
}

// shardFn is one attempt of a shard op against the OSD's store; only GETs
// return bytes.
type shardFn func(ctx context.Context) ([]byte, error)

// do runs fn as one resilient shard op: up to 1+Retries attempts with
// exponential backoff and seeded jitter between transient failures. The
// breaker is consulted before EVERY attempt, not just the first, so a
// circuit that trips mid-loop (including on our own failed half-open
// probe) stops the retries immediately. hedge is the delay after which an
// unanswered attempt is duplicated once (shard GETs pass HedgeDelay,
// writes and deletes 0).
func (p *osdPath) do(ctx context.Context, op string, hedge time.Duration, fn shardFn) ([]byte, error) {
	g, series := p.gw, p.gw.series.op[op]
	var err error
	for a := 0; ; a++ {
		if !p.breaker.Allow(time.Now()) {
			g.series.breakerSkipped.Inc()
			if err == nil {
				err = errCircuitOpen
			}
			return nil, err
		}
		var data []byte
		if data, err = p.attempt(ctx, series.shard, hedge, fn); err == nil {
			return data, nil
		}
		if !transient(err) || g.retry.Exhausted(a) || ctx.Err() != nil {
			return nil, err
		}
		series.retries.Inc()
		if sleep(ctx, g.retry.Backoff(a)) != nil {
			return nil, err
		}
	}
}

// attempt sends fn to the OSD under the per-shard deadline, and a second
// time if hedge > 0 and the first send has not answered within it. The
// first success wins and the other send is cancelled; a failure is
// returned only once no send is left that could still win. Truthful
// scoring: only sends that ran to their own completion are recorded in
// the latency histogram and against the breaker — a cancelled hedge loser
// is not, and neither is a failure caused by ctx, the parent request
// (client disconnect, request deadline), which says nothing about the
// OSD's health: a burst of disconnects would otherwise trip breakers on
// perfectly healthy OSDs.
func (p *osdPath) attempt(ctx context.Context, seconds *Histogram, hedge time.Duration, fn shardFn) ([]byte, error) {
	type result struct {
		data   []byte
		err    error
		hedged bool // from the duplicate send
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan result, 2) // one slot per possible send, so none blocks after we return
	send := func(hedged bool) {
		start := time.Now()
		sctx, scancel := context.WithTimeout(actx, p.gw.cfg.ShardTimeout)
		data, err := fn(sctx)
		scancel()
		if actx.Err() == nil {
			seconds.Observe(time.Since(start))
			if !errors.Is(err, context.Canceled) {
				p.breaker.record(err == nil || errors.Is(err, ErrNotFound), err, time.Now())
				p.state.Set(int64(p.breaker.State()))
			}
		}
		results <- result{data, err, hedged}
	}
	go send(false)
	var hedgeAt <-chan time.Time
	// No hedging while the breaker is half-open: it admitted exactly one
	// probe, and a hedge would double it behind its back.
	if hedge > 0 && p.breaker.State() != BreakerHalfOpen {
		t := time.NewTimer(hedge)
		defer t.Stop()
		hedgeAt = t.C
	}
	for sent, received := 1, 0; ; {
		select {
		case <-hedgeAt:
			hedgeAt = nil
			sent++
			p.gw.series.hedgedReads.Inc()
			go send(true)
		case r := <-results:
			received++
			if r.err == nil {
				if r.hedged {
					p.gw.series.hedgeWins.Inc()
				}
				return r.data, nil
			}
			if received == sent {
				return nil, r.err
			}
		}
	}
}

// fetchShard reads one shard through the OSD's resilient path, hedged,
// and validates its length.
func (g *Gateway) fetchShard(ctx context.Context, skey string, shard, osd int, want int64) ([]byte, error) {
	p := &g.osds[osd]
	data, err := p.do(ctx, "get", g.cfg.HedgeDelay, func(c context.Context) ([]byte, error) {
		return p.store.Get(c, skey, shard)
	})
	if err == nil && int64(len(data)) != want {
		return nil, fmt.Errorf("service: shard %d length %d, want %d", shard, len(data), want)
	}
	return data, err
}

// OSDStatus is one row of /v1/osds: the backend's self-reported stat
// merged with the gateway's health view, which is the OSD's breaker.
type OSDStatus struct {
	OSDStat
	Down    bool    `json:"gateway_down"` // breaker not closed
	Fails   int     `json:"consecutive_fails"`
	Breaker string  `json:"breaker"`
	ErrRate float64 `json:"error_rate_ewma"`
	LastErr string  `json:"last_error,omitempty"`
	Error   string  `json:"stat_error,omitempty"`
}

// OSDStatuses stats every OSD (short per-OSD deadline).
func (g *Gateway) OSDStatuses(ctx context.Context) []OSDStatus {
	out := make([]OSDStatus, len(g.osds))
	var wg sync.WaitGroup
	for i := range g.osds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, row := &g.osds[i], &out[i]
			sctx, cancel := context.WithTimeout(ctx, g.cfg.ShardTimeout)
			defer cancel()
			st, err := p.store.Stat(sctx)
			if err != nil {
				st = OSDStat{ID: i}
				row.Error = err.Error()
			}
			row.OSDStat = st
			state := p.breaker.State()
			row.Down = state != BreakerClosed
			row.Breaker = state.String()
			row.Fails, row.LastErr = p.breaker.Health()
			row.ErrRate = p.breaker.FailureRate()
		}(i)
	}
	wg.Wait()
	return out
}
