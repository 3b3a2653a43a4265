package core

import (
	"fmt"
	"slices"

	"ecarray/internal/rs"
	"ecarray/internal/sim"
)

// Pool is a RADOS pool: a PG-sharded namespace with one fault-tolerance
// profile. Objects hash to placement groups; CRUSH maps each PG to an
// ordered OSD list whose head is the primary (§II-A).
type Pool struct {
	id      int
	name    string
	profile Profile
	code    *rs.Code // nil for replicated pools
	c       *Cluster
	pgs     []*PG

	// recoveryRate caps background repair bandwidth in bytes/second of
	// moved data (pulled + rebuilt); 0 means unthrottled. See
	// SetRecoveryRate.
	recoveryRate int64
}

// PG is a placement group: the unit of ordering, locking and placement.
type PG struct {
	id     int
	shards []int // OSD id per shard position; -1 = missing (failed OSD)
	lock   *sim.Resource

	// objects tracks every object stored in the PG and its logical size,
	// for recovery enumeration.
	objects map[string]int64

	// Erasure-coded pools track which objects have had their data and
	// coding shards created/filled (§VII-B object management), and keep a
	// small stripe cache at the primary that absorbs consecutive
	// sequential reads of the same stripe (§IV-B RS-concatenation).
	inited map[string]bool
	scache *stripeCache

	// --- dirty-shard tracking (PG-log-lite, the divergence bookkeeping
	// Ceph keeps in its PG log; D3-style "exactly which shards diverged") ---

	// epoch is the PG's write epoch: it bumps on every write that lands
	// while the acting set is degraded (a missing or backfilling shard).
	// Healthy-period writes reach every shard, so they need no record.
	epoch uint64
	// dirty maps an object to the epoch of its last degraded-period write.
	dirty map[string]uint64
	// gone maps a departed OSD id to its last clean epoch: every write it
	// observed is at or below this epoch.
	gone map[int]uint64
	// gonePos pins the shard position a departed OSD held, so re-admission
	// returns it to exactly that position (a CRUSH re-Select with other
	// OSDs still out can shift positions and would re-slot the wrong
	// chunk column).
	gonePos map[int]int
	// bf marks shard positions that are re-admitted but stale: present in
	// placement, excluded from reads and writes (served around by
	// reconstruction, exactly like out) until Backfill re-syncs their
	// divergent objects and flips them clean.
	bf map[int]bfEntry
	// latent records injected silent shard corruption (object -> shard
	// positions) for the scrub pass to detect and repair.
	latent map[string]map[int]bool
}

// bfEntry is one backfilling position's divergence reference.
type bfEntry struct {
	// depart is the returning OSD's last clean epoch: objects whose dirty
	// epoch exceeds it diverged while the OSD was out.
	depart uint64
	// full marks unknown provenance (no departure record, e.g. the
	// position's history was lost to a replacement): every object must be
	// re-synced.
	full bool
}

// noteObject records (or extends) an object in the PG's catalog.
func (pg *PG) noteObject(obj string, end int64) {
	if end > pg.objects[obj] {
		pg.objects[obj] = end
	}
}

// live reports whether the shard position serves I/O: present and not
// backfilling.
func (pg *PG) live(pos int) bool {
	if pg.shards[pos] < 0 {
		return false
	}
	_, stale := pg.bf[pos]
	return !stale
}

// degraded reports whether any shard position is missing or backfilling.
func (pg *PG) degraded() bool {
	if len(pg.bf) > 0 {
		return true
	}
	for _, osd := range pg.shards {
		if osd < 0 {
			return true
		}
	}
	return false
}

// noteWrite records a write landing on the PG: while degraded, the write
// cannot reach every shard, so the object is marked dirty at a fresh epoch
// for later backfill enumeration.
func (pg *PG) noteWrite(obj string) {
	if !pg.degraded() {
		return
	}
	pg.epoch++
	pg.dirty[obj] = pg.epoch
}

// maybeAllClean drops the divergence bookkeeping once every shard position
// is present and clean again: any future departure records an epoch at or
// above every tracked write, so old entries can never match.
func (pg *PG) maybeAllClean() {
	if pg.degraded() {
		return
	}
	if len(pg.dirty) > 0 {
		pg.dirty = map[string]uint64{}
	}
	if len(pg.gone) > 0 {
		pg.gone = map[int]uint64{}
		pg.gonePos = map[int]int{}
	}
}

func newPool(c *Cluster, id int, name string, profile Profile) (*Pool, error) {
	pl := &Pool{id: id, name: name, profile: profile, c: c}
	if profile.IsEC() {
		code, err := rs.New(profile.K, profile.M)
		if err != nil {
			return nil, err
		}
		pl.code = code.WithConcurrency(c.cfg.CodecConcurrency)
	}
	width := profile.Width()
	for pgid := 0; pgid < c.cfg.PGsPerPool; pgid++ {
		seed := uint64(id)<<32 | uint64(pgid)
		sel, err := c.cmap.Select(seed, width)
		if err != nil {
			return nil, fmt.Errorf("core: mapping pg %d.%d: %w", id, pgid, err)
		}
		pg := &PG{
			id:      pgid,
			shards:  sel,
			lock:    sim.NewResource(c.e, fmt.Sprintf("pg/%d.%d", id, pgid), 1),
			objects: map[string]int64{},
			dirty:   map[string]uint64{},
			gone:    map[int]uint64{},
			gonePos: map[int]int{},
			bf:      map[int]bfEntry{},
			latent:  map[string]map[int]bool{},
		}
		if profile.IsEC() {
			pg.inited = map[string]bool{}
			pg.scache = newStripeCache(c.cfg.StripeCacheStripes)
		}
		pl.pgs = append(pl.pgs, pg)
	}
	return pl, nil
}

// Name returns the pool name.
func (pl *Pool) Name() string { return pl.name }

// PGs returns the number of placement groups.
func (pl *Pool) PGs() int { return len(pl.pgs) }

// pgOf hashes an object name to its placement group, as libRADOS does with
// object IDs (§II-A data path).
func (pl *Pool) pgOf(obj string) *PG {
	h := uint64(14695981039346656037)
	for i := 0; i < len(obj); i++ {
		h ^= uint64(obj[i])
		h *= 1099511628211
	}
	return pl.pgs[h%uint64(len(pl.pgs))]
}

// PGFor exposes the PG id an object maps to (diagnostics, tests, ecctl).
func (pl *Pool) PGFor(obj string) int { return pl.pgOf(obj).id }

// ActingSet returns the serving OSD ids of an object's PG in shard order
// (missing and backfilling shards omitted).
func (pl *Pool) ActingSet(obj string) []int {
	pg := pl.pgOf(obj)
	var out []int
	for pos, osd := range pg.shards {
		if pg.live(pos) {
			out = append(out, osd)
		}
	}
	return out
}

func (pl *Pool) osdOut(id int) {
	for _, pg := range pl.pgs {
		for i, osd := range pg.shards {
			if osd != id {
				continue
			}
			pg.shards[i] = -1
			// Record the departure once: if the position was still mid-
			// backfill, the shard's content is only clean through the
			// ORIGINAL departure epoch, so the existing record stands.
			if _, tracked := pg.gone[id]; !tracked {
				pg.gone[id] = pg.epoch
				pg.gonePos[id] = i
			}
			delete(pg.bf, i)
		}
		if pg.scache != nil {
			pg.scache.clear()
		}
	}
}

// osdIn re-admits a restored OSD into the shard positions it departed from.
// Positions with objects written while the OSD was out come back as
// `backfilling`: in placement but excluded from reads and writes (served
// around by reconstruction, exactly like out) until Pool.Backfill re-syncs
// the divergent objects and flips them clean.
func (pl *Pool) osdIn(id int) {
	width := pl.profile.Width()
	for pgid, pg := range pl.pgs {
		pos, tracked := pg.gonePos[id]
		if !tracked {
			// No departure record (the PG never lost this OSD, or its
			// position history was lost to a replacement): consult CRUSH
			// for a vacant original position. Mapping errors mean the
			// placement hole persists — surface them as cluster events
			// instead of silently skipping the PG.
			seed := uint64(pl.id)<<32 | uint64(pgid)
			sel, err := pl.c.cmap.Select(seed, width)
			if err != nil {
				pl.c.emitEvent("pg-map-error", fmt.Sprintf(
					"pool %s pg %d.%d: re-admission mapping for osd%d: %v",
					pl.name, pl.id, pgid, id, err))
				continue
			}
			pos = -1
			for i, osd := range sel {
				if osd == id && pg.shards[i] == -1 {
					pos = i
					break
				}
			}
			if pos < 0 {
				continue
			}
		} else if pg.shards[pos] != -1 {
			// The position was re-filled by recovery while the OSD was
			// out; the returning OSD has no claim on this PG any more.
			delete(pg.gone, id)
			delete(pg.gonePos, id)
			continue
		}

		pg.shards[pos] = id
		depart, known := pg.gone[id]
		divergent := !known // unknown provenance: everything must re-sync
		if known {
			for _, e := range pg.dirty {
				if e > depart {
					divergent = true
					break
				}
			}
		}
		if divergent && len(pg.objects) > 0 {
			pg.bf[pos] = bfEntry{depart: depart, full: !known}
		} else {
			// Nothing written while the OSD was out: its shard is current
			// and serves immediately.
			delete(pg.gone, id)
			delete(pg.gonePos, id)
			pg.maybeAllClean()
		}
		// Post-restore reads must re-account private traffic against the
		// restored acting set (symmetry with osdOut).
		if pg.scache != nil {
			pg.scache.clear()
		}
	}
}

// primary returns the PG's acting primary: the first live shard.
func (pg *PG) primary() (shardPos int, osd int) {
	for i, o := range pg.shards {
		if o >= 0 && pg.live(i) {
			return i, o
		}
	}
	return -1, -1
}

// sources appends to dst the first max live shard positions outside
// exclude, in ascending order. Data positions precede parity, so asking an
// EC PG for k of them yields every live data shard plus just enough parity
// to substitute for the missing ones (§II-C) — the choice reads,
// read-modify-writes and every repair pass make.
func (pg *PG) sources(dst, exclude []int, max int) []int {
	n := len(dst)
	for pos := 0; pos < len(pg.shards) && len(dst)-n < max; pos++ {
		if pg.live(pos) && !slices.Contains(exclude, pos) {
			dst = append(dst, pos)
		}
	}
	return dst
}

// liveShards counts live (serving, non-backfilling) shard positions.
func (pg *PG) liveShards() int {
	n := 0
	for i := range pg.shards {
		if pg.live(i) {
			n++
		}
	}
	return n
}

// --- stripe cache ---

type stripeKey struct {
	obj    string
	stripe int64
}

// stripeCache is a FIFO-evicting cache of decoded stripes held by the
// primary. Entries optionally carry the stripe's data-chunk bytes (carry
// mode). order is a ring of cap keys made by the first put: re-putting a
// cached stripe keeps its place; a dropped one leaves the ring.
type stripeCache struct {
	cap     int
	entries map[stripeKey][][]byte
	order   []stripeKey // order[(head+i)%cap] for i < len(entries)
	head    int
	hits    int64
	misses  int64
}

func newStripeCache(cap int) *stripeCache {
	return &stripeCache{cap: cap, entries: map[stripeKey][][]byte{}}
}

func (sc *stripeCache) get(k stripeKey) ([][]byte, bool) {
	v, ok := sc.entries[k]
	if ok {
		sc.hits++
	} else {
		sc.misses++
	}
	return v, ok
}

func (sc *stripeCache) put(k stripeKey, chunks [][]byte) {
	if sc.cap == 0 {
		return
	}
	if _, ok := sc.entries[k]; !ok {
		if sc.order == nil {
			sc.order = make([]stripeKey, sc.cap)
		}
		if len(sc.entries) == sc.cap { // full: evict the oldest
			delete(sc.entries, sc.order[sc.head])
			sc.head = (sc.head + 1) % sc.cap
		}
		sc.order[(sc.head+len(sc.entries))%sc.cap] = k
	}
	sc.entries[k] = chunks
}

// drop removes k and closes its gap in the ring (only writes after reads pay).
func (sc *stripeCache) drop(k stripeKey) {
	if _, ok := sc.entries[k]; !ok {
		return
	}
	i := 0
	for sc.order[(sc.head+i)%sc.cap] != k {
		i++
	}
	for ; i < len(sc.entries)-1; i++ {
		sc.order[(sc.head+i)%sc.cap] = sc.order[(sc.head+i+1)%sc.cap]
	}
	delete(sc.entries, k)
}

func (sc *stripeCache) clear() {
	clear(sc.entries)
	sc.head = 0
}

// --- EC geometry ---

// ecGeom captures the stripe arithmetic of §II-B: stripe width = k×n with
// n = StripeUnit; an object of ObjectSize bytes holds ceil(ObjectSize/width)
// stripes; shard objects hold one n-sized chunk per stripe.
type ecGeom struct {
	k, m        int
	unit        int64 // n (4 KB in the paper)
	stripeWidth int64 // k×n
	stripes     int64 // stripes per object
	shardSize   int64 // bytes per shard object
}

func (pl *Pool) geom() ecGeom {
	k := int64(pl.profile.K)
	unit := pl.c.cfg.StripeUnit
	width := k * unit
	stripes := (pl.c.cfg.ObjectSize + width - 1) / width
	return ecGeom{
		k:           pl.profile.K,
		m:           pl.profile.M,
		unit:        unit,
		stripeWidth: width,
		stripes:     stripes,
		shardSize:   stripes * unit,
	}
}

// stripeSpan returns the stripe index range [s0, s1) covering [off, off+len).
func (g ecGeom) stripeSpan(off, length int64) (s0, s1 int64) {
	return off / g.stripeWidth, (off + length + g.stripeWidth - 1) / g.stripeWidth
}
