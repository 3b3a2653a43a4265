package core

import (
	"fmt"
	"slices"
	"time"

	"ecarray/internal/retry"
	"ecarray/internal/sim"
)

// The shard fetch every read runs: an EC read (or a sub-stripe write's read
// phase) pulling k shards to the primary, and a replicated read pulling one
// copy. EC read latency is the latency of the slowest shard (§IV), so a
// degraded-but-alive OSD drags every read that touches it. GrayConfig's
// knobs tune how this one path bounds that tail: per-request deadlines
// (falling back to reconstruction from a spare shard), bounded retry with
// exponential backoff on intermittent errors, and hedged reads (one
// speculative extra request, first-k-wins). With the knobs at zero a
// request is never abandoned or hedged, and an injected device error fails
// over to a spare at once.

// shardReq is one in-flight shard request.
type shardReq struct {
	pos      int      // shard position within the PG
	osd      *OSD     // the position's OSD when issued
	issued   sim.Time // last (re)issue time, for deadline/hedge clocks
	attempts int      // retries consumed
	hedge    bool     // speculative extra request

	done      bool   // transfer finished (data or permanent failure)
	failed    bool   // retries exhausted on injected errors
	abandoned bool   // deadline passed or lost the race: bytes are discarded
	scored    bool   // health sample already recorded (timeout abandonment)
	data      []byte // valid only when done && !failed && !abandoned
}

// shardRace is the state one tailFetch call shares between the waiting
// caller and its chain-only request processes (pulls and retry backoffs),
// pooled per Cluster. refs counts the caller and each request still running
// (first-k losers outlive tailFetch); a request Drain kills never drops its
// ref, nor repools the race.
type shardRace struct {
	c       *Cluster
	prim    *OSD
	obj     string
	off, n  int64 // shard byte range
	need    int
	rp      retry.Policy
	waker   sim.Waker
	cands   []int             // candidate positions, in preference order
	reqs    []shardReq        // issue order; reqs[i] asks cands[i]
	done    []*shardReq       // completion order, for first-k-wins
	won     int               // successful completions not abandoned
	winners []int             // winning positions in completion order
	results [][]byte          // aligned with winners
	bodies  []func(*sim.Proc) // bodies[i] starts reqs[i], bound once
	xfers   []*transfer       // xfers[i] carries reqs[i]'s pulls
	refs    int
	pullFn  func([]sim.Stage) // pulled, bound once
	retryFn func([]sim.Stage) // retry, bound once
}

// release drops a reference — the caller's, done with winners and results,
// or a returning request process's — and repools the race at the last one.
func (s *shardRace) release() {
	if s.refs--; s.refs > 0 {
		return
	}
	clear(s.reqs)
	clear(s.done)
	clear(s.results)
	s.c.races = append(s.c.races, s)
}

// issue starts the request for the next candidate.
func (s *shardRace) issue(pg *PG, hedge bool) {
	i := len(s.reqs)
	pos := s.cands[i]
	s.reqs = append(s.reqs, shardReq{pos: pos, osd: s.c.osds[pg.shards[pos]], issued: s.c.e.Now(), hedge: hedge})
	for len(s.bodies) <= i {
		j := len(s.bodies)
		s.xfers = append(s.xfers, s.c.transfer())
		s.bodies = append(s.bodies, func(sp *sim.Proc) { s.attempt(sp, j) })
	}
	s.refs++
	s.c.e.GoChain("tailfetch", s.obj, pos, s.bodies[i])
}

// attempt starts request i's next pull.
func (s *shardRace) attempt(sp *sim.Proc, i int) {
	r := &s.reqs[i]
	r.issued = sp.Now()
	r.osd.Store.Device().TakeFault() // drop faults belonging to other I/O paths
	var b [8]sim.Stage
	sp.Then(s.c.pullShard(b[:0], s.xfers[i], sp, s.prim, r.osd, s.obj, s.off, s.n, sim.Stage{Done: s.pullFn, Arg: int64(i)})...)
}

// pulled scores request Arg's first attempt with the health tracker, then
// records a success or, once retries are exhausted, a failure, or backs off
// to retry; an abandoned request's bytes are discarded.
func (s *shardRace) pulled(rest []sim.Stage) {
	i := int(rest[0].Arg)
	c, r := s.c, &s.reqs[i]
	faulted := r.osd.Store.Device().TakeFault()
	if !r.scored {
		r.scored = true
		c.noteShardSample(r.osd.ID, time.Duration(c.e.Now()-r.issued), faulted)
	}
	switch {
	case r.abandoned: // too late — the caller moved on
	case !faulted:
		r.data, r.done = s.xfers[i].op.Data(), true
		s.done = append(s.done, r)
		// Only the need-th success changes a decision of the waiter's;
		// waking it for each would cost a switch apiece.
		s.won++
		if s.won == s.need {
			s.waker.Wake()
		}
	default:
		c.grayM.ShardFaults++
		if !s.rp.Exhausted(r.attempts) {
			s.xfers[i].p.Then(sim.Stage{D: s.rp.Backoff(r.attempts), Done: s.retryFn, Arg: int64(i)})
			return
		}
		r.failed, r.done = true, true
		s.done = append(s.done, r)
		s.waker.Wake()
	}
	s.release()
}

// retry counts request Arg's retry once its backoff has passed, and pulls.
func (s *shardRace) retry(rest []sim.Stage) {
	i := int(rest[0].Arg)
	s.reqs[i].attempts++
	s.c.grayM.ShardRetries++
	s.attempt(s.xfers[i].p, i)
}

// tailFetch pulls [shardOff, shardOff+perShard) of `need` shards out of
// the PG's live positions (in preference order: for EC the live data
// shards, which need no reconstruction, then live parity as spares),
// tolerating gray failures:
// a request past GrayConfig.ShardTimeout is abandoned and the next candidate
// issued instead; an injected error retries with exponential backoff up to
// ShardRetries before failing over; once the oldest outstanding request has
// waited HedgeDelay, one speculative extra request joins the race. The
// first `need` completions win — losers are abandoned and their bytes
// never reach the caller. Every outcome feeds the per-OSD health tracker.
//
// The race's winners hold the winning positions in completion order; its
// results are aligned with them. The caller releases the race when done
// with both. The call fails only when fewer than `need` candidates are
// live, or a request exhausts its retries with no spare left.
func (pl *Pool) tailFetch(p *sim.Proc, pg *PG, prim *OSD, obj string,
	need int, shardOff, perShard int64) (*shardRace, error) {
	c := pl.c
	g := &c.cfg.Gray
	if live := pg.liveShards(); live < need {
		return nil, fmt.Errorf("core: pg %d.%d: only %d of %d shards live", pl.id, pg.id, live, need)
	}

	race := pop(&c.races)
	if race == nil {
		race = &shardRace{c: c}
		race.pullFn, race.retryFn = race.pulled, race.retry
	}
	race.cands = pg.sources(race.cands[:0], nil, len(pg.shards))
	race.prim, race.obj, race.off, race.n, race.need, race.won, race.refs = prim, obj, shardOff, perShard, need, 0, 1
	// Uncapped, jitterless schedule: the simulated path wants exact
	// RetryBackoff << attempt waits (golden digests pin the sequence).
	race.rp = retry.Policy{Max: g.ShardRetries, Base: g.RetryBackoff}
	race.waker = *sim.NewWaker(c.e)
	// Each candidate is issued at most once, so reqs never grows within a
	// race and pointers into it stay valid.
	race.reqs = slices.Grow(race.reqs[:0], len(race.cands))
	race.done, race.winners, race.results = race.done[:0], race.winners[:0], race.results[:0]
	spare := func() bool { return len(race.reqs) < len(race.cands) }

	for i := 0; i < need; i++ {
		race.issue(pg, false)
	}

	hedged := false
	for race.won < need {
		now := c.e.Now()
		oldest := sim.Time(-1)
		for i := range race.reqs {
			r := &race.reqs[i]
			if r.abandoned {
				continue
			}
			if r.done {
				if r.failed {
					// Retries exhausted: fail over to a spare shard.
					if !spare() {
						err := fmt.Errorf("core: pg %d.%d: shard %d failed after %d retries with no spare",
							pl.id, pg.id, r.pos, r.attempts)
						race.release()
						return nil, err
					}
					r.abandoned = true
					race.issue(pg, false)
				}
				continue
			}
			if g.ShardTimeout > 0 && now-r.issued >= sim.Time(g.ShardTimeout) && spare() {
				// Deadline: abandon and reconstruct from a spare. Score the
				// miss now so the breaker reacts before the stuck I/O ever
				// completes.
				r.abandoned = true
				r.scored = true
				c.grayM.ShardTimeouts++
				c.noteShardSample(c.osds[pg.shards[r.pos]].ID, g.ShardTimeout, true)
				race.issue(pg, false)
				continue
			}
			if oldest < 0 || r.issued < oldest {
				oldest = r.issued
			}
		}
		if g.HedgeDelay > 0 && !hedged && spare() && oldest >= 0 &&
			now-oldest >= sim.Time(g.HedgeDelay) {
			hedged = true
			c.grayM.HedgesIssued++
			race.issue(pg, true)
		}

		// Sleep until the next completion, deadline, or hedge point.
		wait := time.Duration(-1)
		consider := func(d time.Duration) {
			if wait < 0 || d < wait {
				wait = d
			}
		}
		oldest = -1
		for i := range race.reqs {
			r := &race.reqs[i]
			if r.abandoned || r.done {
				continue
			}
			if g.ShardTimeout > 0 && spare() {
				consider(time.Duration(r.issued+sim.Time(g.ShardTimeout)) - time.Duration(now))
			}
			if oldest < 0 || r.issued < oldest {
				oldest = r.issued
			}
		}
		if g.HedgeDelay > 0 && !hedged && spare() && oldest >= 0 {
			consider(time.Duration(oldest+sim.Time(g.HedgeDelay)) - time.Duration(now))
		}
		if wait < 0 {
			race.waker.Wait(p)
		} else {
			race.waker.WaitTimeout(p, wait)
		}
	}

	// First-`need`-wins: later completions and still-outstanding requests
	// lose the race. Their bytes are discarded; a loser that eventually
	// completes still feeds the health tracker with its true latency.
	taken := 0
	for _, r := range race.done {
		if r.failed || r.abandoned {
			continue
		}
		if taken == need {
			r.abandoned = true
			continue
		}
		taken++
		race.winners = append(race.winners, r.pos)
		race.results = append(race.results, r.data)
		if r.hedge {
			c.grayM.HedgesWon++
		}
	}
	for i := range race.reqs {
		if r := &race.reqs[i]; !r.done {
			r.abandoned = true
		}
	}
	return race, nil
}
