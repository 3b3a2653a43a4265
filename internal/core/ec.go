package core

import (
	"fmt"
	"slices"
	"time"

	"ecarray/internal/sim"
)

// encodeCost is the user CPU of multiplying dataBytes of stripe data through
// the generator matrix's m parity rows (§II-C). The per-KiB rate comes from
// the cost model: a paper-calibrated constant by default, or the measured
// throughput of the real vectorized codec when calibration is enabled.
func (pl *Pool) encodeCost(dataBytes int64) time.Duration {
	return perKB(dataBytes*int64(pl.profile.M), pl.c.cfg.Cost.EncodeCostPerKB())
}

// fetchK pulls [shardOff, shardOff+perShard) of k shards of obj to the
// primary, for a read or the read phase of a sub-stripe write: the PG's
// first k live positions are asked first and the live parity positions are
// the spares (tailfetch.go). The caller releases the race.
func (pl *Pool) fetchK(p *sim.Proc, pg *PG, prim *OSD, obj string, shardOff, perShard int64) (*shardRace, error) {
	return pl.tailFetch(p, pg, prim, obj, pl.profile.K, shardOff, perShard)
}

// materializeStripes turns fetched shard ranges into per-stripe data chunks,
// reconstructing the data shards absent from srcs (degraded read, via the
// recover matrix of §II-C). In size-only mode it only charges the
// reconstruction and returns no map.
func (pl *Pool) materializeStripes(p *sim.Proc, prim *OSD, srcs []int,
	results [][]byte, s0, s1 int64) (map[int64][][]byte, error) {
	g := pl.geom()
	cm := &pl.c.cfg.Cost
	perShard := (s1 - s0) * g.unit
	missingData := 0
	for j := 0; j < g.k; j++ {
		if !slices.Contains(srcs, j) {
			missingData++
		}
	}

	// Reconstruction cost: one recover-matrix row (k coefficients) per
	// missing data shard, over the whole range.
	if missingData > 0 {
		prim.Node.CPU.Exec(p, perKB(int64(missingData)*perShard*int64(g.k), cm.EncodeCostPerKB()), 0)
	}
	if !pl.c.cfg.CarryData {
		return nil, nil
	}

	out := make(map[int64][][]byte, s1-s0)
	for s := s0; s < s1; s++ {
		shards := make([][]byte, g.k+g.m)
		base := (s - s0) * g.unit
		for i, pos := range srcs {
			if results[i] == nil {
				return nil, fmt.Errorf("core: missing fetch result for shard %d", pos)
			}
			shards[pos] = results[i][base : base+g.unit]
		}
		if missingData > 0 {
			if err := pl.code.ReconstructData(shards); err != nil {
				return nil, fmt.Errorf("core: reconstruct stripe %d: %w", s, err)
			}
		}
		out[s] = shards[:g.k]
	}
	return out, nil
}

// readEC implements the erasure-coded read path (§IV-A "RS-concatenation"):
// even without failures, the primary must pull the data chunks of every
// touched stripe from k OSDs over the private network and compose them into
// a stripe before replying, which is why EC reads carry private traffic and
// CPU cost that replication does not have. A small stripe cache at the
// primary absorbs consecutive sequential requests to the same stripe.
func (pl *Pool) readEC(p *sim.Proc, obj string, off, length int64) ([]byte, error) {
	cm := &pl.c.cfg.Cost
	g := pl.geom()
	pg := pl.pgOf(obj)
	_, primID := pg.primary()
	if primID < 0 {
		return nil, fmt.Errorf("core: pg %d.%d has no live OSDs", pl.id, pg.id)
	}
	prim := pl.c.osds[primID]

	pl.c.send(p, pl.c.public, pl.c.client, prim.Node, 0)

	prim.Workers.Acquire(p, 1)
	pg.lock.Acquire(p, 1)
	prim.Node.CPU.Exec(p, cm.DispatchUser+cm.PGLockBaseline, 0)

	s0, s1 := g.stripeSpan(off, length)
	var stripes map[int64][][]byte // carry mode only: the reply's chunks
	if pl.c.cfg.CarryData {
		stripes = make(map[int64][][]byte, s1-s0)
	}
	ms0, ms1 := s1, s0 // first and one past the last stripe the cache misses
	for s := s0; s < s1; s++ {
		if chunks, ok := pg.scache.get(stripeKey{obj, s}); !ok {
			ms0, ms1 = min(ms0, s), s+1
		} else if stripes != nil {
			stripes[s] = chunks
		}
	}

	if ms0 < ms1 {
		perShard := (ms1 - ms0) * g.unit
		race, err := pl.fetchK(p, pg, prim, obj, ms0*g.unit, perShard)
		if err != nil {
			pg.lock.Release(1)
			prim.Workers.Release(1)
			return nil, err
		}
		// RS-concatenation: compose chunks into stripes.
		prim.Node.CPU.Exec(p, perKB(int64(g.k)*perShard, cm.ConcatPerKB), 0)
		fetched, err := pl.materializeStripes(p, prim, race.winners, race.results, ms0, ms1)
		race.release()
		if err != nil {
			pg.lock.Release(1)
			prim.Workers.Release(1)
			return nil, err
		}
		// Insert in ascending stripe order: the cache evicts FIFO, so
		// insertion order is simulated state — ranging over the map here
		// would make eviction (and every later hit/miss) nondeterministic.
		for s := ms0; s < ms1; s++ {
			chunks := fetched[s]
			pg.scache.put(stripeKey{obj, s}, chunks)
			if stripes != nil {
				stripes[s] = chunks
			}
		}
	}

	pg.lock.Release(1)
	prim.Workers.Release(1)

	var data []byte
	if pl.c.cfg.CarryData {
		data = assembleRead(g, stripes, off, length)
	}

	pl.c.send(p, pl.c.public, prim.Node, pl.c.client, length)
	return data, nil
}

// assembleRead composes the client reply for [off, off+length) from per-stripe
// data chunks, copying whole chunk runs at a time. Ranges whose stripe or
// chunk is absent stay zero (size-only fetches, holes).
func assembleRead(g ecGeom, stripes map[int64][][]byte, off, length int64) []byte {
	data := make([]byte, length)
	s0, s1 := g.stripeSpan(off, length)
	for s := s0; s < s1; s++ {
		chunks := stripes[s]
		if chunks == nil {
			continue
		}
		stripeStart := s * g.stripeWidth
		lo, hi := max(off, stripeStart), min(off+length, stripeStart+g.stripeWidth)
		for abs := lo; abs < hi; {
			within := abs - stripeStart
			chunk, cOff := within/g.unit, within%g.unit
			run := min(g.unit-cOff, hi-abs)
			if c := chunks[chunk]; c != nil {
				copy(data[abs-off:abs-off+run], c[cOff:cOff+run])
			}
			abs += run
		}
	}
	return data
}

// initObject implements §VII-B object management: the first write into an
// object's range creates the object and fills all k+m shard objects (dummy
// data chunks plus computed coding chunks) across the PG's OSDs. The caller
// holds the PG lock, so a sequential stream stalls while this runs — the
// paper's Fig 19 periodic near-zero throughput.
func (pl *Pool) initObject(p *sim.Proc, pg *PG, prim *OSD, obj string) {
	g := pl.geom()

	// Encode the whole object's parity.
	prim.Node.CPU.Exec(p, pl.encodeCost(g.stripes*g.stripeWidth), 0)

	push := pl.c.getPush(pg, prim, obj, 0, g.shardSize, false)
	push.start("ecinit", true)
	push.wait(p)
	pg.inited[obj] = true
	pg.noteObject(obj, g.stripes*g.stripeWidth)
}

// writeEC implements the erasure-coded write path: writes are managed at
// stripe granularity (§IV-B), so a sub-stripe write must read the stripe's
// current data chunks, merge the new data, re-encode the m coding chunks,
// and rewrite all k+m chunks — the paper's read-and-regenerate update
// behaviour that amplifies both device I/O (Figs 13-14) and private network
// traffic (Fig 16). The PG lock is held across the read-modify-encode cycle
// for stripe consistency, which serializes sequential streams.
func (pl *Pool) writeEC(p *sim.Proc, obj string, off int64, data []byte, length int64) error {
	cm := &pl.c.cfg.Cost
	g := pl.geom()
	pg := pl.pgOf(obj)
	_, primID := pg.primary()
	if primID < 0 || pg.liveShards() < g.k {
		return fmt.Errorf("core: pg %d.%d cannot write (%d live shards)", pl.id, pg.id, pg.liveShards())
	}
	prim := pl.c.osds[primID]

	pl.c.send(p, pl.c.public, pl.c.client, prim.Node, length)

	prim.Workers.Acquire(p, 1)
	pg.lock.Acquire(p, 1)
	prim.Node.CPU.Exec(p, cm.DispatchUser+cm.PGLogUser+cm.PGLockBaseline, 0)

	if !pg.inited[obj] {
		pl.initObject(p, pg, prim, obj)
	}
	// Degraded writes cannot reach every shard: record the divergence for
	// later backfill enumeration (PG-log-lite).
	pg.noteWrite(obj)

	s0, s1 := g.stripeSpan(off, length)
	perShard := (s1 - s0) * g.unit
	fullStripes := off%g.stripeWidth == 0 && (off+length)%g.stripeWidth == 0

	// Read phase: a sub-stripe write pulls the stripes' current data chunks
	// from the k data shards. (The paper's measurements show no stripe
	// reuse across writes, so this bypasses the read-side stripe cache.)
	var oldStripes map[int64][][]byte
	if !fullStripes {
		race, err := pl.fetchK(p, pg, prim, obj, s0*g.unit, perShard)
		if err != nil {
			pg.lock.Release(1)
			prim.Workers.Release(1)
			return err
		}
		oldStripes, err = pl.materializeStripes(p, prim, race.winners, race.results, s0, s1)
		race.release()
		if err != nil {
			pg.lock.Release(1)
			prim.Workers.Release(1)
			return err
		}
	}

	// Merge + encode: regenerate the coding chunks for every touched stripe.
	prim.Node.CPU.Exec(p, pl.encodeCost((s1-s0)*g.stripeWidth), 0)
	// Per shard: bytes for [s0*unit, s1*unit). An error leaves it to the GC.
	push := pl.c.getPush(pg, prim, obj, s0*g.unit, perShard, true)
	if pl.c.cfg.CarryData {
		if err := pl.buildShardWrites(obj, off, data, length, oldStripes, s0, s1, push.payload); err != nil {
			pg.lock.Release(1)
			prim.Workers.Release(1)
			return err
		}
	}

	// The stripes are changing: drop stale cache entries.
	for s := s0; s < s1; s++ {
		pg.scache.drop(stripeKey{obj, s})
	}

	// Write phase: push all live (non-backfilling) shard ranges.
	push.start("ecwrite", true)
	pg.lock.Release(1)
	prim.Workers.Release(1)
	push.wait(p)

	pl.c.send(p, pl.c.public, prim.Node, pl.c.client, 0)
	return nil
}

// buildShardWrites constructs the per-shard byte ranges for a stripe-granular
// write in carry mode: old chunks merged with the new data, parity re-encoded
// with the real RS codec.
func (pl *Pool) buildShardWrites(obj string, off int64, data []byte, length int64,
	oldStripes map[int64][][]byte, s0, s1 int64, shardData [][]byte) error {
	g := pl.geom()
	perShard := (s1 - s0) * g.unit
	for pos := range shardData {
		shardData[pos] = make([]byte, perShard)
	}
	stripe := make([][]byte, g.k+g.m)
	for s := s0; s < s1; s++ {
		base := (s - s0) * g.unit
		for j := 0; j < g.k; j++ {
			stripe[j] = shardData[j][base : base+g.unit]
			if oldStripes != nil {
				if old := oldStripes[s]; old != nil && old[j] != nil {
					copy(stripe[j], old[j])
				}
			}
		}
		for j := g.k; j < g.k+g.m; j++ {
			stripe[j] = shardData[j][base : base+g.unit]
		}
		// Overlay the new data for this stripe, whole chunk runs at a time.
		if data != nil {
			stripeStart := s * g.stripeWidth
			lo, hi := max(off, stripeStart), min(off+length, stripeStart+g.stripeWidth)
			for abs := lo; abs < hi; {
				within := abs - stripeStart
				chunk, cOff := within/g.unit, within%g.unit
				run := min(g.unit-cOff, hi-abs)
				copy(stripe[chunk][cOff:cOff+run], data[abs-off:abs-off+run])
				abs += run
			}
		}
		if err := pl.code.Encode(stripe); err != nil {
			return fmt.Errorf("core: encode stripe %d: %w", s, err)
		}
	}
	return nil
}

// WriteObject writes [off, off+length) of a RADOS object through the pool's
// fault-tolerance backend. data may be nil in size-only mode (and means
// zeroes in carry mode).
func (pl *Pool) WriteObject(p *sim.Proc, obj string, off int64, data []byte, length int64) error {
	if off < 0 || length <= 0 {
		return fmt.Errorf("core: invalid object write range off=%d len=%d", off, length)
	}
	if pl.profile.IsEC() {
		return pl.writeEC(p, obj, off, data, length)
	}
	return pl.writeReplicated(p, obj, off, data, length)
}

// ReadObject reads [off, off+length) of a RADOS object. The returned bytes
// are nil in size-only mode.
func (pl *Pool) ReadObject(p *sim.Proc, obj string, off, length int64) ([]byte, error) {
	if off < 0 || length <= 0 {
		return nil, fmt.Errorf("core: invalid object read range off=%d len=%d", off, length)
	}
	if pl.profile.IsEC() {
		return pl.readEC(p, obj, off, length)
	}
	return pl.readReplicated(p, obj, off, length)
}

// PrefillObject marks an object as fully written (size bytes for replicated
// pools, all shards for EC pools) without simulating the I/O. Read
// experiments use it to model the paper's pre-written images.
func (pl *Pool) PrefillObject(obj string, size int64) {
	pg := pl.pgOf(obj)
	if pl.profile.IsEC() {
		g := pl.geom()
		for pos, osdID := range pg.shards {
			if pg.live(pos) {
				pl.c.osds[osdID].Store.Prefill(obj, g.shardSize)
			}
		}
		pg.inited[obj] = true
		pg.noteObject(obj, g.stripes*g.stripeWidth)
		pg.noteWrite(obj)
		return
	}
	for pos, osdID := range pg.shards {
		if pg.live(pos) {
			pl.c.osds[osdID].Store.Prefill(obj, size)
		}
	}
	pg.noteObject(obj, size)
	pg.noteWrite(obj)
}
