package core

import (
	"fmt"
	"time"

	"ecarray/internal/sim"
)

// RecoveryStats summarizes a repair pass: the §II-C costs the paper's
// background motivates (a node repairing a chunk must pull k-1 remaining
// chunks over the network — k× more traffic than the data repaired; the
// Facebook cluster moves >100 TB/day for reconstruction).
type RecoveryStats struct {
	PGsRepaired       int
	ObjectsRepaired   int
	ShardsRebuilt     int
	BytesRebuilt      int64 // shard bytes written to replacement OSDs
	BytesPulled       int64 // shard bytes read from surviving OSDs
	ReplicasCopied    int   // replicated-pool object copies restored
	DurationSimulated time.Duration
}

// SetRecoveryRate caps background repair bandwidth at bytesPerSec of moved
// bytes (pulled from survivors plus rebuilt onto replacements); 0 removes
// the cap. A running Recover pass picks the change up at its next object —
// this is the knob Ceph exposes as osd_recovery_max_active/backfill
// throttling, and the Scenario API drives it mid-run to trade repair time
// against foreground interference (§IV-E).
func (pl *Pool) SetRecoveryRate(bytesPerSec int64) {
	if bytesPerSec < 0 {
		bytesPerSec = 0
	}
	pl.recoveryRate = bytesPerSec
	pl.c.emitEvent("recovery-rate", fmt.Sprintf("pool %s: %d B/s (0 = unthrottled)", pl.name, bytesPerSec))
}

// paceState meters one Recover/Backfill pass against the pool's recovery
// rate. The reference point rebases whenever the rate changes mid-pass, so a
// new cap applies from the change onward instead of retroactively charging
// (or crediting) bytes moved under the old regime.
type paceState struct {
	rate     int64
	refTime  sim.Time
	refMoved int64
}

// pace throttles a background repair process: sleep long enough that moved
// bytes since the pace reference stay at or under the pool's recovery rate.
// All-integer arithmetic — whole seconds first, then the sub-second
// remainder — so long throttled passes never accumulate float rounding
// drift (rem < rate keeps rem×1e9 within int64 for any rate below ~9.2
// GB/s).
func (pl *Pool) pace(p *sim.Proc, ps *paceState, moved int64) {
	if pl.recoveryRate != ps.rate {
		ps.rate = pl.recoveryRate
		ps.refTime = p.Now()
		ps.refMoved = moved
		return
	}
	if ps.rate <= 0 {
		return
	}
	d := moved - ps.refMoved
	minElapsed := time.Duration(d/ps.rate)*time.Second +
		time.Duration(d%ps.rate*int64(time.Second)/ps.rate)
	if elapsed := time.Duration(p.Now() - ps.refTime); elapsed < minElapsed {
		p.Sleep(minElapsed - elapsed)
	}
}

// Recover rebuilds every missing shard/replica in the pool onto replacement
// OSDs chosen by CRUSH from the surviving devices, running as simulation
// process p. EC shards are reconstructed by pulling k surviving shards and
// applying the recover matrix; replicated objects are copied from a
// surviving replica. After a successful pass the pool serves reads without
// degraded-path reconstruction. When a recovery rate is set
// (SetRecoveryRate) the pass paces itself object by object.
func (pl *Pool) Recover(p *sim.Proc) (RecoveryStats, error) {
	start := p.Now()
	pl.c.emitEvent("recovery-start", fmt.Sprintf("pool %s: %d degraded PGs", pl.name, pl.Degraded()))
	var st RecoveryStats
	ps := paceState{rate: pl.recoveryRate, refTime: start}
	for pgid, pg := range pl.pgs {
		missing := missingPositions(pg)
		if len(missing) == 0 {
			continue
		}
		if err := pl.assignReplacements(pgid, pg, missing); err != nil {
			return st, err
		}
		// The replacements hold nothing yet: every object of the PG is
		// rebuilt onto them from the survivors.
		for _, obj := range sortedKeys(pg.objects) {
			pulled, pushed, err := pl.repairObject(p, pg, "recover", obj, missing)
			if err != nil {
				return st, err
			}
			st.ObjectsRepaired++
			if pl.profile.IsEC() {
				st.ShardsRebuilt += len(missing)
			} else {
				st.ReplicasCopied += len(missing)
			}
			st.BytesPulled += pulled
			st.BytesRebuilt += pushed
			pl.pace(p, &ps, st.BytesPulled+st.BytesRebuilt)
		}
		if pg.scache != nil {
			pg.scache.clear()
		}
		pg.maybeAllClean()
		st.PGsRepaired++
	}
	st.DurationSimulated = time.Duration(p.Now() - start)
	pl.c.emitEvent("recovery-done", fmt.Sprintf(
		"pool %s: %d PGs, %d objects, %.1f MiB rebuilt in %v",
		pl.name, st.PGsRepaired, st.ObjectsRepaired, float64(st.BytesRebuilt)/(1<<20), st.DurationSimulated))
	return st, nil
}

func missingPositions(pg *PG) []int {
	var out []int
	for i, osd := range pg.shards {
		if osd < 0 {
			out = append(out, i)
		}
	}
	return out
}

// assignReplacements fills the missing shard positions with fresh OSDs from
// CRUSH (which already excludes out devices), avoiding OSDs that still hold
// other shards of the PG.
func (pl *Pool) assignReplacements(pgid int, pg *PG, missing []int) error {
	width := pl.profile.Width()
	seed := uint64(pl.id)<<32 | uint64(pgid)
	inUse := map[int]bool{}
	for _, osd := range pg.shards {
		if osd >= 0 {
			inUse[osd] = true
		}
	}
	// Ask CRUSH for a wider selection and take the first unused devices, so
	// replacement choice stays deterministic and balanced.
	want := width + len(missing)
	if max := pl.c.cmap.Devices(); want > max {
		want = max
	}
	sel, err := pl.c.cmap.Select(seed, want)
	if err != nil {
		return fmt.Errorf("core: recovery selection for pg %d.%d: %w", pl.id, pgid, err)
	}
	cand := make([]int, 0, len(sel))
	for _, osd := range sel {
		if !inUse[osd] {
			cand = append(cand, osd)
		}
	}
	if len(cand) < len(missing) {
		return fmt.Errorf("core: pg %d.%d: not enough replacement OSDs", pl.id, pgid)
	}
	for i, pos := range missing {
		pg.shards[pos] = cand[i]
		inUse[cand[i]] = true
	}
	return nil
}

// Degraded reports how many PGs currently serve reads by reconstruction:
// those with missing shards plus those with re-admitted-but-stale
// (backfilling) positions.
func (pl *Pool) Degraded() int {
	n := 0
	for _, pg := range pl.pgs {
		if len(missingPositions(pg)) > 0 || len(pg.bf) > 0 {
			n++
		}
	}
	return n
}

// Backfilling reports how many PGs have re-admitted positions still awaiting
// a Backfill pass (stale shards served by reconstruction around them).
func (pl *Pool) Backfilling() int {
	n := 0
	for _, pg := range pl.pgs {
		if len(pg.bf) > 0 {
			n++
		}
	}
	return n
}
