package core

import (
	"fmt"
	"sort"
	"time"

	"ecarray/internal/sim"
)

// BackfillStats summarizes one Backfill pass: how much divergence a restored
// OSD accumulated while it was out, and what it cost to re-sync. Unlike a
// full Recover, backfill moves only the objects the PG log marked dirty —
// Ceph's log-based recovery versus whole-PG backfill distinction.
type BackfillStats struct {
	PGsBackfilled     int
	ObjectsSynced     int
	ShardsSynced      int   // EC shard copies rewritten onto backfilling positions
	BytesRestored     int64 // bytes written onto backfilling positions
	BytesPulled       int64 // bytes read from live shards/replicas
	ReplicasCopied    int   // replicated-pool object copies re-synced
	DurationSimulated time.Duration
}

// Backfill re-syncs every backfilling shard position in the pool (positions
// re-admitted by MarkOSDIn whose objects diverged while the OSD was out),
// running as simulation process p. Only divergent objects move: for EC PGs
// each is reconstructed from k live shards and its chunk rewritten onto the
// stale position; for replicated PGs the full object is copied from a live
// replica. Writes that land mid-pass keep accumulating dirty epochs, so the
// pass loops until it converges, then flips the positions clean — from that
// point they serve reads directly again. The pass shares the recovery
// throttle: SetRecoveryRate paces it object by object.
func (pl *Pool) Backfill(p *sim.Proc) (BackfillStats, error) {
	start := p.Now()
	pl.c.emitEvent("backfill-start", fmt.Sprintf("pool %s: %d backfilling PGs", pl.name, pl.Backfilling()))
	var st BackfillStats
	ps := paceState{rate: pl.recoveryRate, refTime: start}
	for _, pg := range pl.pgs {
		if len(pg.bf) == 0 {
			continue
		}
		if err := pl.backfillPG(p, &ps, pg, &st); err != nil {
			return st, err
		}
		st.PGsBackfilled++
	}
	st.DurationSimulated = time.Duration(p.Now() - start)
	pl.c.emitEvent("backfill-done", fmt.Sprintf(
		"pool %s: %d PGs, %d objects, %.1f MiB restored in %v",
		pl.name, st.PGsBackfilled, st.ObjectsSynced, float64(st.BytesRestored)/(1<<20), st.DurationSimulated))
	return st, nil
}

// backfillNeeds enumerates, per divergent object, which backfilling
// positions still need it: everything for full-resync positions, otherwise
// the objects whose dirty epoch exceeds the position's synced epoch.
func backfillNeeds(pg *PG, synced map[int]uint64, full map[int]bool) map[string][]int {
	need := map[string][]int{}
	for pos := range pg.bf {
		if full[pos] {
			for obj := range pg.objects {
				need[obj] = append(need[obj], pos)
			}
			continue
		}
		for obj, e := range pg.dirty {
			if e > synced[pos] {
				need[obj] = append(need[obj], pos)
			}
		}
	}
	for _, positions := range need {
		sort.Ints(positions)
	}
	return need
}

// flipClean moves every backfilling position back into live service and
// drops its divergence records.
func (pg *PG) flipClean() {
	var positions []int
	for pos := range pg.bf {
		positions = append(positions, pos)
	}
	for _, pos := range positions {
		id := pg.shards[pos]
		delete(pg.bf, pos)
		delete(pg.gone, id)
		delete(pg.gonePos, id)
	}
	pg.maybeAllClean()
	if pg.scache != nil {
		pg.scache.clear()
	}
}

// backfillPG re-syncs one PG's backfilling positions: each divergent object
// is rewritten onto the stale positions that need it, round after round
// until no foreground write slipped in behind the pass.
func (pl *Pool) backfillPG(p *sim.Proc, ps *paceState, pg *PG, st *BackfillStats) error {
	synced := map[int]uint64{}
	full := map[int]bool{}
	for pos, e := range pg.bf {
		synced[pos] = e.depart
		full[pos] = e.full
	}

	for {
		target := pg.epoch
		need := backfillNeeds(pg, synced, full)
		if len(need) == 0 {
			break
		}
		for _, obj := range sortedKeys(need) {
			positions := need[obj]

			// The PG lock serializes the object's sync against foreground
			// writes: a write that slips in after this sync bumps the epoch
			// past target and the convergence loop picks it up next round.
			pg.lock.Acquire(p, 1)
			pulled, pushed, err := pl.repairObject(p, pg, "backfill", obj, positions)
			pg.lock.Release(1)
			if err != nil {
				return err
			}

			st.ObjectsSynced++
			if pl.profile.IsEC() {
				st.ShardsSynced += len(positions)
			} else {
				st.ReplicasCopied += len(positions)
			}
			st.BytesPulled += pulled
			st.BytesRestored += pushed
			pl.pace(p, ps, st.BytesPulled+st.BytesRestored)
		}
		for pos := range synced {
			synced[pos] = target
			full[pos] = false
		}
		if pg.epoch == target {
			break
		}
		// Foreground writes landed mid-pass; another round syncs the delta.
	}
	pg.flipClean()
	return nil
}
