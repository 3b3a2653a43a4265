package core

import (
	"fmt"
	"sort"

	"ecarray/internal/sim"
)

// The one repair body. Recover, Backfill and Scrub differ in which objects
// and which shard positions they rewrite, under which lock and pacing
// discipline, and in the stats they keep; how a position's copy of an object
// is rewritten — an EC shard by reconstruction from k source shards (§II-C),
// a replica by copy from a live one — is here, on top of pushShard and
// pullShard.

// fanOut runs fn once per shard position, each in its own simulation process
// named tag/obj.pos, and returns when all have finished. A position's OSD is
// resolved before its process starts.
func (pl *Pool) fanOut(p *sim.Proc, pg *PG, tag, obj string, positions []int, fn func(sp *sim.Proc, pos int, osd *OSD)) {
	latch := sim.NewLatch(pl.c.e, len(positions))
	for _, pos := range positions {
		osd := pl.c.osds[pg.shards[pos]]
		pl.c.e.GoNamed(tag, obj, pos, func(sp *sim.Proc) {
			fn(sp, pos, osd)
			latch.Done()
		})
	}
	latch.Wait(p)
}

// rewrite pushes a full n-byte copy of obj from the OSD `from` to every
// target position, concurrently. A target's previous bytes are gone once it
// returns, so a latent error recorded against them goes with them — whereas
// an OSD that merely leaves and returns undiverged keeps its bad bytes, and
// its record.
func (pl *Pool) rewrite(p *sim.Proc, pg *PG, from *OSD, tag, obj string, targets []int, n int64, payload func(pos int) []byte) {
	pl.fanOut(p, pg, tag, obj, targets, func(sp *sim.Proc, pos int, osd *OSD) {
		pl.c.pushShard(sp, from, osd, obj, 0, payload(pos), n)
	})
	for _, pos := range targets {
		delete(pg.latent[obj], pos)
	}
	if len(pg.latent[obj]) == 0 {
		delete(pg.latent, obj)
	}
}

// rebuildEC reconstructs obj's shards at the target positions from k source
// shards already at the primary (results is aligned with srcs) and pushes
// each to its OSD. The decode costs one recover-matrix row of k coefficients
// per target over the shard bytes.
func (pl *Pool) rebuildEC(p *sim.Proc, pg *PG, prim *OSD, tag, obj string, srcs []int, results [][]byte, targets []int) error {
	g := pl.geom()
	prim.Node.CPU.Exec(p, perKB(int64(len(targets))*g.shardSize*int64(g.k), pl.c.cfg.Cost.EncodeCostPerKB()), 0)
	var shardBytes map[int][]byte
	if pl.c.cfg.CarryData {
		var err error
		if shardBytes, err = pl.rebuildShardBytes(obj, srcs, targets, results, g); err != nil {
			return err
		}
	}
	pl.rewrite(p, pg, prim, tag, obj, targets, g.shardSize, func(pos int) []byte { return shardBytes[pos] })
	return nil
}

// rebuildShardBytes reconstructs missing shard contents stripe by stripe.
func (pl *Pool) rebuildShardBytes(obj string, srcs, rebuilt []int, results [][]byte, g ecGeom) (map[int][]byte, error) {
	out := map[int][]byte{}
	for _, pos := range rebuilt {
		out[pos] = make([]byte, g.shardSize)
	}
	for s := int64(0); s < g.stripes; s++ {
		shards := make([][]byte, g.k+g.m)
		base := s * g.unit
		for i, pos := range srcs {
			if results[i] == nil {
				return nil, fmt.Errorf("core: recovery fetch for %s shard %d empty", obj, pos)
			}
			shards[pos] = results[i][base : base+g.unit]
		}
		if err := pl.code.Reconstruct(shards); err != nil {
			return nil, fmt.Errorf("core: recovery reconstruct %s stripe %d: %w", obj, s, err)
		}
		for _, pos := range rebuilt {
			copy(out[pos][base:base+g.unit], shards[pos])
		}
	}
	return out, nil
}

// repairEC rebuilds obj's shards at the target positions of an EC PG: the
// acting primary pulls the first k live shards outside the targets
// (backfilling positions hold stale bytes and cannot be sources either) and
// reconstructs — k× more bytes pulled than repaired, the §II-C repair tax.
// It returns the bytes pulled and pushed.
func (pl *Pool) repairEC(p *sim.Proc, pg *PG, tag, obj string, targets []int) (pulled, pushed int64, err error) {
	g := pl.geom()
	srcs := pg.sources(targets, g.k)
	if len(srcs) < g.k {
		return 0, 0, fmt.Errorf("core: pg %d.%d: object %s beyond repair (%d source shards)", pl.id, pg.id, obj, len(srcs))
	}
	_, primID := pg.primary() // exists: the sources are live
	prim := pl.c.osds[primID]
	results := pl.fetchShards(p, pg, prim, obj, srcs, 0, g.shardSize)
	err = pl.rebuildEC(p, pg, prim, tag, obj, srcs, results, targets)
	return int64(g.k) * g.shardSize, int64(len(targets)) * g.shardSize, err
}

// copyReplica restores obj's full copies at the target positions of a
// replicated PG: the first live replica outside the targets reads the object
// from its own store and pushes it to each target. It returns the bytes
// pulled and pushed.
func (pl *Pool) copyReplica(p *sim.Proc, pg *PG, tag, obj string, targets []int) (pulled, pushed int64, err error) {
	srcs := pg.sources(targets, 1)
	if len(srcs) == 0 {
		return 0, 0, fmt.Errorf("core: pg %d.%d: object %s has no live replica to copy from", pl.id, pg.id, obj)
	}
	src := pl.c.osds[pg.shards[srcs[0]]]
	size := pg.objects[obj]
	data := pl.c.pullShard(p, src, src, obj, 0, size)
	pl.rewrite(p, pg, src, tag, obj, targets, size, func(int) []byte { return data })
	return size, int64(len(targets)) * size, nil
}

// repairObject rewrites obj's copies at the target positions through the
// pool's backend.
func (pl *Pool) repairObject(p *sim.Proc, pg *PG, tag, obj string, targets []int) (pulled, pushed int64, err error) {
	if pl.profile.IsEC() {
		return pl.repairEC(p, pg, tag, obj, targets)
	}
	return pl.copyReplica(p, pg, tag, obj, targets)
}

// sortedKeys returns m's keys in ascending order: repair passes walk objects
// in a deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
