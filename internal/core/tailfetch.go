package core

import (
	"fmt"
	"time"

	"ecarray/internal/retry"
	"ecarray/internal/sim"
)

// The tail-tolerant shard fetch: the gray-failure counterpart of
// fetchShards (ec.go). EC read latency is the latency of the slowest shard
// (§IV), so a degraded-but-alive OSD drags every read that touches it. This
// path bounds that tail with per-request deadlines (falling back to
// reconstruction from a spare shard), bounded retry with exponential
// backoff on intermittent errors, and hedged reads (one speculative extra
// request, first-k-wins). It runs only when GrayConfig enables it; the
// default configuration keeps the untouched fetchShards path, byte for
// byte.

// shardReq is one in-flight request on the tail-tolerant path.
type shardReq struct {
	pos      int      // shard position within the PG
	issued   sim.Time // last (re)issue time, for deadline/hedge clocks
	attempts int      // retries consumed
	hedge    bool     // speculative extra request

	done      bool   // transfer finished (data or permanent failure)
	failed    bool   // retries exhausted on injected errors
	abandoned bool   // deadline passed or lost the race: bytes are discarded
	scored    bool   // health sample already recorded (timeout abandonment)
	data      []byte // valid only when done && !failed && !abandoned
}

// tailFetch pulls [shardOff, shardOff+perShard) of `need` shards out of
// candidates (in preference order: for EC the live data shards, which need
// no reconstruction, then live parity as spares), tolerating gray failures:
// a request past GrayConfig.ShardTimeout is abandoned and the next candidate
// issued instead; an injected error retries with exponential backoff up to
// ShardRetries before failing over; once the oldest outstanding request has
// waited HedgeDelay, one speculative extra request joins the race. The
// first `need` completions win — losers are abandoned and their bytes
// never reach the caller. Every outcome feeds the per-OSD health tracker.
//
// winners holds the winning positions in completion order; results is
// aligned with it. The call fails only when fewer than `need` candidates
// are live, or a request exhausts its retries with no spare left.
func (pl *Pool) tailFetch(p *sim.Proc, pg *PG, prim *OSD, obj string,
	candidates []int, need int, shardOff, perShard int64) (winners []int, results [][]byte, err error) {
	c := pl.c
	g := &c.cfg.Gray
	e := c.e
	if len(candidates) < need {
		return nil, nil, fmt.Errorf("core: pg %d.%d: only %d of %d shards live",
			pl.id, pg.id, len(candidates), need)
	}

	waker := sim.NewWaker(e)
	// Uncapped, jitterless schedule: the simulated path wants exact
	// RetryBackoff << attempt waits (golden digests pin the sequence).
	rp := retry.Policy{Max: g.ShardRetries, Base: g.RetryBackoff}
	var reqs []*shardReq
	var doneSeq []*shardReq // completion order, for first-k-wins
	next := 0               // next unused candidate

	issue := func(hedge bool) {
		pos := candidates[next]
		next++
		r := &shardReq{pos: pos, issued: e.Now(), hedge: hedge}
		reqs = append(reqs, r)
		osd := c.osds[pg.shards[pos]]
		e.GoNamed("tailfetch", obj, pos, func(sp *sim.Proc) {
			dev := osd.Store.Device()
			for {
				r.issued = sp.Now()
				dev.TakeFault() // drop faults belonging to other I/O paths
				data := c.pullShard(sp, prim, osd, obj, shardOff, perShard)
				faulted := dev.TakeFault()
				if !r.scored {
					r.scored = true
					c.noteShardSample(osd.ID, time.Duration(sp.Now()-r.issued), faulted)
				}
				if r.abandoned {
					return // too late — the caller moved on; discard the bytes
				}
				if !faulted {
					r.data, r.done = data, true
					doneSeq = append(doneSeq, r)
					waker.Wake()
					return
				}
				c.grayM.ShardFaults++
				if rp.Exhausted(r.attempts) {
					r.failed, r.done = true, true
					doneSeq = append(doneSeq, r)
					waker.Wake()
					return
				}
				sp.Sleep(rp.Backoff(r.attempts))
				r.attempts++
				c.grayM.ShardRetries++
			}
		})
	}

	for i := 0; i < need; i++ {
		issue(false)
	}

	hedged := false
	for {
		won := 0
		for _, r := range doneSeq {
			if !r.failed && !r.abandoned {
				won++
			}
		}
		if won >= need {
			break
		}

		now := e.Now()
		spare := func() bool { return next < len(candidates) }
		oldest := sim.Time(-1)
		for _, r := range reqs {
			if r.abandoned {
				continue
			}
			if r.done {
				if r.failed {
					// Retries exhausted: fail over to a spare shard.
					if !spare() {
						return nil, nil, fmt.Errorf("core: pg %d.%d: shard %d failed after %d retries with no spare",
							pl.id, pg.id, r.pos, r.attempts)
					}
					r.abandoned = true
					issue(false)
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
				issue(false)
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
			issue(true)
		}

		// Sleep until the next completion, deadline, or hedge point.
		wait := time.Duration(-1)
		consider := func(d time.Duration) {
			if wait < 0 || d < wait {
				wait = d
			}
		}
		oldest = -1
		for _, r := range reqs {
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
			waker.Wait(p)
		} else {
			waker.WaitTimeout(p, wait)
		}
	}

	// First-`need`-wins: later completions and still-outstanding requests
	// lose the race. Their bytes are discarded; a loser that eventually
	// completes still feeds the health tracker with its true latency.
	taken := 0
	for _, r := range doneSeq {
		if r.failed || r.abandoned {
			continue
		}
		if taken == need {
			r.abandoned = true
			continue
		}
		taken++
		winners = append(winners, r.pos)
		results = append(results, r.data)
		if r.hedge {
			c.grayM.HedgesWon++
		}
	}
	for _, r := range reqs {
		if !r.done {
			r.abandoned = true
		}
	}
	return winners, results, nil
}
