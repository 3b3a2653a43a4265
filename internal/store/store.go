// Package store implements a BlueStore-like object store backing one OSD.
//
// The reproduced paper's cluster runs Ceph Kraken with BlueStore "optimized
// for modern SSDs" (§III). The mechanisms modeled here are the ones its I/O
// amplification analysis (§VI-A) depends on:
//
//   - 4 KB minimum I/O: sub-block writes read-modify-write the containing
//     block (the paper's 9× read amplification for 1 KB replicated writes),
//     and reads are served in whole blocks;
//   - deferred (WAL) writes: small writes are journaled to a write-ahead
//     ring and then applied in place, roughly doubling device writes for
//     small I/O;
//   - metadata: every transaction contributes key-value metadata that is
//     batched and flushed in block-sized writes;
//   - a block cache that absorbs repeated reads of the same block, which is
//     why consecutive sub-block sequential reads show no amplification
//     (Fig 15a) while random ones do (Fig 15b).
//
// The cache is a FIFO-evicted membership set of device blocks: a hit costs
// no I/O and, in carry mode, reads the device's bytes free (ssd.Device.Peek),
// which writes and Corrupt keep current by dropping what they change.
//
// Objects are allocated in min-alloc units from a bump allocator. No
// simulated workload deletes an object, so a unit is never freed.
package store

import (
	"fmt"
	"math/bits"
	"slices"

	"ecarray/internal/sim"
	"ecarray/internal/ssd"
)

// Config holds store parameters.
type Config struct {
	// MinAlloc is the extent allocation unit (BlueStore min_alloc_size;
	// 16 KiB for SSDs in the Kraken era).
	MinAlloc int64
	// BlockSize is the minimum I/O unit (4 KiB in the paper).
	BlockSize int64
	// DeferredThreshold: writes of at most this many bytes are journaled to
	// the WAL before the in-place apply (BlueStore deferred writes). Zero
	// disables deferral.
	DeferredThreshold int64
	// WALRegion is the size of the write-ahead ring at the device start.
	WALRegion int64
	// MetaPerOp is the metadata (onode/kv) bytes each transaction adds.
	MetaPerOp int64
	// CacheBlocks is the number of BlockSize entries in the read cache.
	CacheBlocks int
}

// DefaultConfig returns parameters matching the paper-era BlueStore.
func DefaultConfig() Config {
	return Config{
		MinAlloc:          16 << 10,
		BlockSize:         4 << 10,
		DeferredThreshold: 32 << 10,
		WALRegion:         64 << 20,
		MetaPerOp:         512,
		CacheBlocks:       8192,
	}
}

func (c *Config) validate() error {
	if c.BlockSize <= 0 || c.MinAlloc <= 0 || c.MinAlloc%c.BlockSize != 0 {
		return fmt.Errorf("store: MinAlloc %d must be a positive multiple of BlockSize %d", c.MinAlloc, c.BlockSize)
	}
	if c.DeferredThreshold < 0 || c.MetaPerOp < 0 {
		return fmt.Errorf("store: negative thresholds")
	}
	if c.WALRegion < 0 || c.WALRegion%c.BlockSize != 0 {
		return fmt.Errorf("store: WALRegion must be a non-negative multiple of BlockSize")
	}
	if c.CacheBlocks < 0 {
		return fmt.Errorf("store: negative cache size")
	}
	return nil
}

type object struct {
	size  int64
	units []int64 // device offset per MinAlloc unit; -1 = unallocated hole
}

// Stats are store-level counters, complementing the device's.
type Stats struct {
	WriteOps    int64
	ReadOps     int64
	WALBytes    int64 // journal writes issued for deferred I/O
	MetaBytes   int64 // metadata flush bytes
	RMWReads    int64 // block reads forced by sub-block writes
	CacheHits   int64
	CacheMisses int64
	ObjectsMade int64
}

// Store is one OSD's object store.
type Store struct {
	cfg  Config
	e    *sim.Engine
	dev  *ssd.Device
	objs map[string]*object

	next     int64 // bump allocator cursor (device offset)
	walOff   int64 // WAL ring cursor
	metaOff  int64 // metadata region cursor (rotates within WAL region tail)
	metaPend int64

	cache     blockSet // cached device block indexes
	cacheLRU  []int64  // cached keys in insertion order: a ring once CacheBlocks long
	cacheOld  int      // ring position of the oldest key
	st        Stats
	carryData bool
}

// New creates a store on dev. carryData must match the device's data mode.
func New(e *sim.Engine, dev *ssd.Device, cfg Config, carryData bool) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.WALRegion*2 >= dev.Capacity() {
		return nil, fmt.Errorf("store: WAL region %d too large for device %d", cfg.WALRegion, dev.Capacity())
	}
	return &Store{
		cfg:       cfg,
		e:         e,
		dev:       dev,
		objs:      map[string]*object{},
		next:      cfg.WALRegion * 2, // [WAL ring][meta region][data...]
		walOff:    0,
		metaOff:   cfg.WALRegion,
		cache:     newBlockSet(0), // sized by the first insert
		carryData: carryData,
	}, nil
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats { return s.st }

// ResetStats zeroes store counters (device counters are separate).
func (s *Store) ResetStats() { s.st = Stats{} }

// Device returns the underlying device.
func (s *Store) Device() *ssd.Device { return s.dev }

// Objects returns the number of live objects.
func (s *Store) Objects() int { return len(s.objs) }

// Exists reports whether the object exists.
func (s *Store) Exists(name string) bool {
	_, ok := s.objs[name]
	return ok
}

func (s *Store) allocUnit() int64 {
	off := s.next
	s.next += s.cfg.MinAlloc
	if off+s.cfg.MinAlloc > s.dev.Capacity() {
		panic("store: device full")
	}
	return off
}

func (s *Store) ensureObject(name string) *object {
	o, ok := s.objs[name]
	if !ok {
		o = &object{}
		s.objs[name] = o
		s.st.ObjectsMade++
	}
	return o
}

// ensureUnits extends the unit table to cover [0, end) and allocates any
// holes in [off, end).
func (s *Store) ensureUnits(o *object, off, end int64) {
	needUnits := (end + s.cfg.MinAlloc - 1) / s.cfg.MinAlloc
	for int64(len(o.units)) < needUnits { // grown once, then filled
		o.units = append(slices.Grow(o.units, int(needUnits)-len(o.units)), -1)
	}
	for u := off / s.cfg.MinAlloc; u < needUnits; u++ {
		if o.units[u] < 0 {
			o.units[u] = s.allocUnit()
		}
	}
}

// devOffset maps a logical object offset to its device offset. The unit must
// be allocated.
func (s *Store) devOffset(o *object, off int64) int64 {
	u := off / s.cfg.MinAlloc
	base := o.units[u]
	if base < 0 {
		panic("store: unallocated unit")
	}
	return base + off%s.cfg.MinAlloc
}

// cacheKey is the device block index.
func (s *Store) cacheKey(devOff int64) int64 { return devOff / s.cfg.BlockSize }

// cacheInsert caches an absent block. A full ring evicts the key in its
// oldest position, whatever that key's state now (dropped, or cached anew).
func (s *Store) cacheInsert(key int64) {
	if s.cfg.CacheBlocks == 0 {
		return
	}
	if len(s.cacheLRU) == 0 {
		s.cache = newBlockSet(s.cfg.CacheBlocks) // empty until now
	}
	if len(s.cacheLRU) < s.cfg.CacheBlocks {
		s.cacheLRU = append(s.cacheLRU, key)
	} else {
		s.cache.drop(s.cacheLRU[s.cacheOld])
		s.cacheLRU[s.cacheOld] = key
		s.cacheOld = (s.cacheOld + 1) % len(s.cacheLRU)
	}
	s.cache.add(key)
}

// blockSet is an open-addressed set of device block indexes with linear
// probing and backward-shift deletion: no tombstones, never a rehash. At
// least twice its capacity in slots, it always has an empty one.
type blockSet struct {
	slots []int64 // block index + 1; 0 is an empty slot
	shift uint8   // 64 - log2(len(slots)/8)
}

func newBlockSet(capacity int) blockSet {
	lg := max(3, bits.Len(uint(max(2*capacity-1, 1))))
	return blockSet{slots: make([]int64, 1<<lg), shift: uint8(64 - lg + 3)}
}

// home is key's first probe slot: each run of 8 blocks, one cache line of
// slots, hashes to a line (Fibonacci hashing) and keeps its order in it, so
// a multi-block I/O touches one line and long runs still scatter.
func (b *blockSet) home(key int64) int {
	return int(uint64(key>>3)*0x9E3779B97F4A7C15>>b.shift)<<3 | int(key&7)
}

// find returns key's slot, or the empty slot ending its probe run.
func (b *blockSet) find(key int64) int {
	mask := len(b.slots) - 1
	i := b.home(key)
	for b.slots[i] != 0 && b.slots[i] != key+1 {
		i = (i + 1) & mask
	}
	return i
}

func (b *blockSet) has(key int64) bool { return b.slots[b.find(key)] != 0 }

func (b *blockSet) add(key int64) { b.slots[b.find(key)] = key + 1 }

// drop removes key, then moves back into the hole each later member of its
// probe run whose home slot does not lie cyclically in (hole, member].
func (b *blockSet) drop(key int64) {
	i := b.find(key)
	if b.slots[i] == 0 {
		return
	}
	mask := len(b.slots) - 1
	for j := (i + 1) & mask; b.slots[j] != 0; j = (j + 1) & mask {
		if home := b.home(b.slots[j] - 1); (j-home)&mask >= (j-i)&mask {
			b.slots[i] = b.slots[j]
			i = j
		}
	}
	b.slots[i] = 0
}

// Read returns length bytes at off. Reads of holes and beyond-EOF ranges
// yield zeroes without device I/O. In size-only mode it returns nil.
func (s *Store) Read(p *sim.Proc, name string, off, length int64) []byte {
	var op Op
	s.ReadOp(&op, name, off, length)
	for st, ok := op.Next(); ok; st, ok = op.Next() {
		p.Hold(st)
	}
	return op.data
}

// Op is a Read or Write walked one device step at a time, so that a hold
// chain can run it: each Next finishes the step that just ended and starts
// the next at that instant, and returns its stage.
type Op struct {
	s           *Store
	o           *object
	name        string
	off, length int64
	data        []byte // the write's bytes, or the read's (carry mode)
	phase       int8
	at          int64    // read: the next block; write: the next run, from the aligned start
	rmw         [2]int64 // write: head and tail blocks to merge
	nrmw        int
	dOff, n     int64  // the device step in flight
	chunk       []byte // its bytes (carry mode)
}

// An Op's phase: what its next Next does (a ...Done phase first finishes
// the device write that just ended).
const (
	opRead       = iota // begin a read
	opReadMissed        // cache the block read at at, then scan on
	opReadScan          // look up blocks from at until one misses the cache
	opWrite             // begin a write: journal it if it is deferred
	opWALDone
	opRMW // read the next head or tail block to merge
	opRunDone
	opRun // write the next device-contiguous run
	opMetaDone
	opMeta // flush a metadata block if one is pending
	opDone
)

// ReadOp sets op up as Read(name, off, length); its first Next begins it.
func (s *Store) ReadOp(op *Op, name string, off, length int64) {
	*op = Op{s: s, name: name, off: off, length: length, phase: opRead}
}

// WriteOp sets op up as Write(name, off, data, length), as ReadOp does.
func (s *Store) WriteOp(op *Op, name string, off int64, data []byte, length int64) {
	*op = Op{s: s, name: name, off: off, length: length, data: data, phase: opWrite}
}

// Data returns a finished read's bytes (nil in size-only mode).
func (op *Op) Data() []byte { return op.data }

// Next finishes the step that just ended, if any, and starts the next,
// returning the device stage that holds it, or false once the op is done.
func (op *Op) Next() (sim.Stage, bool) {
	s, bs := op.s, op.s.cfg.BlockSize
	switch op.phase {
	case opWALDone, opRunDone, opMetaDone:
		s.dev.FinishWrite(op.dOff, op.chunk, op.n)
	}
	for {
		switch op.phase {
		case opRead:
			if op.off < 0 || op.length <= 0 {
				panic("store: invalid read range")
			}
			s.st.ReadOps++
			if s.carryData {
				op.data = make([]byte, op.length)
			}
			op.o, op.at, op.phase = s.objs[op.name], op.off/bs*bs, opReadScan
		case opReadMissed:
			s.cacheInsert(s.cacheKey(op.dOff))
			op.peek()
			op.at, op.phase = op.at+bs, opReadScan
		case opReadScan:
			for o := op.o; o != nil && op.at < op.off+op.length && op.at < o.size; op.at += bs {
				if u := op.at / s.cfg.MinAlloc; u >= int64(len(o.units)) || o.units[u] < 0 {
					continue // hole
				}
				op.dOff = s.devOffset(o, op.at)
				if !s.cache.has(s.cacheKey(op.dOff)) {
					s.st.CacheMisses++
					op.phase = opReadMissed
					return s.dev.ReadStep(op.dOff, bs), true
				}
				s.st.CacheHits++
				op.peek()
			}
			op.phase = opDone
		case opWrite:
			op.beginWrite()
			op.phase = opRMW
			if s.cfg.DeferredThreshold > 0 && op.length <= s.cfg.DeferredThreshold && s.cfg.WALRegion > 0 {
				// Records are 512-byte aligned: the WAL batches entries
				// rather than padding each to a full block, and the ring
				// advances sequentially so the device's write buffer
				// coalesces without read-modify-write.
				return op.journal(&s.walOff, 0, s.cfg.WALRegion, alignUp(op.length+512, 512), opWALDone)
			}
		case opWALDone:
			s.walOff += op.n
			s.st.WALBytes += op.n
			op.phase = opRMW
		case opRMW:
			if op.nrmw == 0 {
				op.at, op.phase = 0, opRun
				continue
			}
			dOff := s.devOffset(op.o, op.rmw[0])
			op.rmw[0], op.nrmw = op.rmw[1], op.nrmw-1
			if s.cache.has(s.cacheKey(dOff)) {
				s.st.CacheHits++
				continue
			}
			s.st.CacheMisses++
			s.st.RMWReads++
			return s.dev.ReadStep(dOff, bs), true
		case opRunDone:
			for b := op.dOff / bs; b <= (op.dOff+op.n-1)/bs; b++ {
				s.cache.drop(b) // the next read refetches the merged data
			}
			op.at, op.chunk, op.phase = op.at+op.n, nil, opRun
		case opRun:
			if st, ok := op.nextRun(); ok {
				return st, true
			}
			s.metaPend += s.cfg.MetaPerOp
			op.phase = opMeta
		case opMetaDone:
			s.metaOff += bs
			s.st.MetaBytes += bs
			s.metaPend -= bs
			op.phase = opMeta
		case opMeta:
			if s.metaPend >= bs {
				return op.journal(&s.metaOff, s.cfg.WALRegion, 2*s.cfg.WALRegion, bs, opMetaDone)
			}
			op.phase = opDone
		default: // opDone
			return sim.Stage{}, false
		}
	}
}

// journal starts a write of n bytes at the ring cursor *at in [lo, hi).
func (op *Op) journal(at *int64, lo, hi, n int64, done int8) (sim.Stage, bool) {
	if *at+n > hi {
		*at = lo
	}
	op.dOff, op.n, op.phase = *at, n, done
	return op.s.dev.WriteStep(op.dOff, nil, n), true
}

// peek copies read block at, at device offset dOff, into the read's bytes
// with no further I/O (carry mode).
func (op *Op) peek() {
	if op.s.carryData {
		lo, hi := max(op.off, op.at), min(op.off+op.length, op.at+op.s.cfg.BlockSize)
		op.s.dev.Peek(op.data[lo-op.off:hi-op.off], op.dOff+lo-op.at)
	}
}

// beginWrite creates or extends the object and allocates its units. Partial
// head/tail blocks need the old content merged in — but only if the block
// holds previously written data (holes read as zeroes free of charge), so
// they are chosen against the pre-write allocation state.
func (op *Op) beginWrite() {
	s := op.s
	if op.off < 0 || op.length <= 0 {
		panic("store: invalid write range")
	}
	if op.data != nil && int64(len(op.data)) != op.length {
		panic("store: data length mismatch")
	}
	s.st.WriteOps++
	o := s.ensureObject(op.name)
	bs, end := s.cfg.BlockSize, op.off+op.length
	for _, blk := range [2]int64{op.off / bs * bs, alignUp(end, bs) - bs} {
		u := blk / s.cfg.MinAlloc
		if (blk < op.off || blk+bs > end) && (op.nrmw == 0 || op.rmw[0] != blk) &&
			blk < o.size && u < int64(len(o.units)) && o.units[u] >= 0 {
			op.rmw[op.nrmw] = blk
			op.nrmw++
		}
	}
	s.ensureUnits(o, op.off, end)
	op.o, o.size = o, max(o.size, end)
}

// nextRun starts the device write of the next maximal device-contiguous
// run of the write's block-aligned span, if one is left.
func (op *Op) nextRun() (sim.Stage, bool) {
	s, bs := op.s, op.s.cfg.BlockSize
	start := op.off / bs * bs
	span := alignUp(op.off+op.length, bs) - start
	if op.at >= span {
		return sim.Stage{}, false
	}
	cur := start + op.at
	op.dOff = s.devOffset(op.o, cur)
	op.n = min(s.cfg.MinAlloc-cur%s.cfg.MinAlloc, span-op.at)
	for op.at+op.n < span && s.devOffset(op.o, cur+op.n) == op.dOff+op.n {
		op.n += min(s.cfg.MinAlloc, span-op.at-op.n)
	}
	if s.carryData && op.data != nil {
		op.chunk = sliceForRun(op.data, op.off, cur, op.n)
	}
	op.phase = opRunDone
	return s.dev.WriteStep(op.dOff, op.chunk, op.n), true
}

// sliceForRun extracts from data (whose first byte is logical offset
// dataStart) the portion covering [runStart, runStart+runLen), zero-padding
// outside the data range (block-alignment padding).
func sliceForRun(data []byte, dataStart, runStart, runLen int64) []byte {
	out := make([]byte, runLen)
	for i := int64(0); i < runLen; i++ {
		abs := runStart + i
		if idx := abs - dataStart; idx >= 0 && idx < int64(len(data)) {
			out[i] = data[idx]
		}
	}
	return out
}

// Corrupt silently flips the object's stored bytes over [off, off+length):
// a latent shard error for scrub experiments. No simulated I/O is issued.
// Only allocated extents are touched (holes have no media to corrupt);
// affected cache blocks are dropped so subsequent reads observe the
// corruption instead of a stale clean copy.
func (s *Store) Corrupt(name string, off, length int64) {
	o, ok := s.objs[name]
	if !ok {
		return
	}
	bs := s.cfg.BlockSize
	for blk := off / bs * bs; blk < off+length; blk += bs {
		if blk >= o.size {
			break
		}
		u := blk / s.cfg.MinAlloc
		if u >= int64(len(o.units)) || o.units[u] < 0 {
			continue // hole
		}
		dOff := s.devOffset(o, blk)
		lo := max(off, blk)
		hi := min(off+length, blk+bs)
		s.dev.Corrupt(dOff+(lo-blk), hi-lo)
		s.cache.drop(s.cacheKey(dOff))
	}
}

// Prefill creates (or extends) an object of the given size with allocated
// extents but without simulating any device I/O. It models a pre-written
// image when setting up read experiments, as the paper does before its read
// measurements (§III).
func (s *Store) Prefill(name string, size int64) {
	if size <= 0 {
		panic("store: invalid prefill size")
	}
	o := s.ensureObject(name)
	s.ensureUnits(o, 0, size)
	if size > o.size {
		o.size = size
	}
}

func alignUp(v, a int64) int64 { return (v + a - 1) / a * a }
