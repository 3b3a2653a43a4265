package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"ecarray/internal/sim"
)

// ScrubStats summarizes one Scrub pass: a read-verify sweep over every
// object in the pool that detects latent (silent) shard errors and repairs
// them by reconstruction — the deep-scrub safety net behind the paper's
// durability discussion (an unnoticed bad shard halves the failures an EC
// group can absorb).
type ScrubStats struct {
	PGsScrubbed       int
	ObjectsScanned    int
	ErrorsFound       int   // latent shard errors detected
	ShardsRepaired    int   // shard/replica copies rewritten
	BytesScanned      int64 // bytes read by the verify sweep
	BytesRepaired     int64 // bytes rewritten onto repaired shards
	DurationSimulated time.Duration
}

// InjectLatentError plants a silent corruption on the shard copy of obj held
// at shard position pos: the stored bytes flip in place with no simulated
// I/O (a media-level latent error), and the PG records it so a Scrub pass
// can detect and repair it. The position must currently be live — errors on
// missing or backfilling shards are repaired by Recover/Backfill anyway.
func (pl *Pool) InjectLatentError(obj string, pos int) error {
	pg := pl.pgOf(obj)
	if _, ok := pg.objects[obj]; !ok {
		return fmt.Errorf("core: pool %s: no object %q", pl.name, obj)
	}
	if pos < 0 || pos >= len(pg.shards) {
		return fmt.Errorf("core: pool %s: shard position %d out of range [0,%d)", pl.name, pos, len(pg.shards))
	}
	if !pg.live(pos) {
		return fmt.Errorf("core: pool %s: shard position %d of %q is not live", pl.name, pos, obj)
	}
	if pg.latent[obj] == nil {
		pg.latent[obj] = map[int]bool{}
	}
	pg.latent[obj][pos] = true
	osd := pl.c.osds[pg.shards[pos]]
	size := pg.objects[obj]
	if pl.profile.IsEC() {
		size = pl.geom().shardSize
	}
	osd.Store.Corrupt(obj, 0, size)
	if pg.scache != nil {
		pg.scache.clear()
	}
	pl.c.emitEvent("latent-error", fmt.Sprintf(
		"pool %s: %s shard %d on osd%d corrupted", pl.name, obj, pos, pg.shards[pos]))
	return nil
}

// LatentErrors counts the recorded-but-unrepaired latent shard errors in the
// pool.
func (pl *Pool) LatentErrors() int {
	n := 0
	for _, pg := range pl.pgs {
		for _, positions := range pg.latent {
			n += len(positions)
		}
	}
	return n
}

// Scrub runs a deep-scrub pass over the pool as simulation process p: every
// live shard copy of every object is read in full (charging the same device
// and network I/O a real verify sweep costs), latent errors are detected
// through the PG's error bookkeeping, and each bad shard is repaired in
// place — EC chunks by reconstruction from k good shards, replicas by
// re-copy from a clean replica.
func (pl *Pool) Scrub(p *sim.Proc) (ScrubStats, error) {
	start := p.Now()
	pl.c.emitEvent("scrub-start", fmt.Sprintf("pool %s: %d PGs", pl.name, len(pl.pgs)))
	var st ScrubStats
	for _, pg := range pl.pgs {
		if len(pg.objects) == 0 {
			continue
		}
		for _, obj := range sortedKeys(pg.objects) {
			// The PG lock holds foreground writes off the object between
			// its verify sweep and its repair.
			pg.lock.Acquire(p, 1)
			err := pl.scrubObject(p, pg, obj, &st)
			pg.lock.Release(1)
			if err != nil {
				return st, err
			}
		}
		st.PGsScrubbed++
	}
	st.DurationSimulated = time.Duration(p.Now() - start)
	pl.c.emitEvent("scrub-done", fmt.Sprintf(
		"pool %s: %d objects scanned, %d errors found, %d shards repaired in %v",
		pl.name, st.ObjectsScanned, st.ErrorsFound, st.ShardsRepaired, st.DurationSimulated))
	return st, nil
}

// latentLivePositions returns the recorded error positions of obj that are
// currently live, ascending.
func latentLivePositions(pg *PG, obj string) []int {
	var out []int
	for pos := range pg.latent[obj] {
		if pos < len(pg.shards) && pg.live(pos) {
			out = append(out, pos)
		}
	}
	sort.Ints(out)
	return out
}

// scrubObject verifies every live copy of one object and repairs the bad
// ones. The caller holds the PG lock.
func (pl *Pool) scrubObject(p *sim.Proc, pg *PG, obj string, st *ScrubStats) error {
	cm := &pl.c.cfg.Cost
	live := pg.sources(nil, len(pg.shards))
	size := pg.objects[obj] // bytes per copy
	var prim *OSD
	var results [][]byte
	if pl.profile.IsEC() {
		if len(live) == 0 {
			return fmt.Errorf("core: pg %d.%d has no live OSDs", pl.id, pg.id)
		}
		// Verify sweep: the primary pulls every live shard in full and
		// checksums the scanned bytes.
		size = pl.geom().shardSize
		prim = pl.c.osds[pg.shards[live[0]]]
		results = pl.fetchShards(p, pg, prim, obj, live, 0, size)
		prim.Node.CPU.Exec(p, perKB(int64(len(live))*size, cm.ConcatPerKB), 0)
	} else {
		// Verify sweep: every live replica reads its full copy in place.
		pl.fanOut(p, pg, "scrub", obj, live, func(sp *sim.Proc, _ int, osd *OSD) {
			osd.Node.CPU.Exec(sp, cm.DispatchUser, cm.StoreSubmitKern)
			osd.Store.Read(sp, obj, 0, size)
		})
	}
	st.BytesScanned += int64(len(live)) * size
	st.ObjectsScanned++

	bad := latentLivePositions(pg, obj)
	if len(bad) == 0 {
		return nil
	}
	st.ErrorsFound += len(bad)
	if pl.profile.IsEC() {
		// Repair by reconstruction from the first k good shards, which the
		// verify sweep already fetched.
		srcs := pg.sources(bad, pl.profile.K)
		if len(srcs) < pl.profile.K {
			return fmt.Errorf("core: pg %d.%d: object %s beyond repair (%d good shards)", pl.id, pg.id, obj, len(srcs))
		}
		srcResults := make([][]byte, 0, len(srcs))
		for i, pos := range live {
			if slices.Contains(srcs, pos) {
				srcResults = append(srcResults, results[i])
			}
		}
		if err := pl.rebuildEC(p, pg, prim, "scrub", obj, srcs, srcResults, bad); err != nil {
			return err
		}
		pg.scache.clear()
	} else {
		// Repair by re-copy from the first clean live replica.
		pulled, _, err := pl.copyReplica(p, pg, "scrub", obj, bad)
		if err != nil {
			return err
		}
		st.BytesScanned += pulled
	}
	st.ShardsRepaired += len(bad)
	st.BytesRepaired += int64(len(bad)) * size
	return nil
}
