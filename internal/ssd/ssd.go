// Package ssd simulates a flash solid-state drive with a page-mapped flash
// translation layer (FTL).
//
// The reproduced paper attributes several cluster-level effects to intrinsic
// SSD behaviour (§I, §VII-A): flash pages cannot be overwritten in place, so
// the FTL redirects writes to pre-erased blocks and garbage-collects stale
// pages, amplifying the data actually written to flash; sequential reads
// benefit from read-ahead; sub-page writes force internal read-modify-write.
// This model reproduces those mechanisms so the bare-SSD baseline of Fig 18
// and the flash-lifetime discussion of §I have a concrete substrate.
//
// The device exposes host-level Read/Write/Trim in virtual time (requests
// queue on an NCQ-like resource and are serviced with a latency+bandwidth
// cost model) and tracks both host-level and flash-level byte counters.
package ssd

import (
	"fmt"
	"math/rand"
	"time"

	"ecarray/internal/sim"
	"ecarray/internal/stats"
)

const unmapped = ^uint32(0)

// The logical-to-physical map is a table of fixed-size leaves allocated on
// first write, and a block's reverse map is allocated when the block is
// first programmed; a missing leaf or reverse map reads as all-unmapped. A
// simulated device is sized for the worst case (every shard of every object)
// while a benchmark cell touches a few thousand pages of it, so the maps
// cost what the run touches rather than what the device could hold.
const (
	l2pLeafBits = 10
	l2pLeafSize = 1 << l2pLeafBits
)

type l2pLeaf [l2pLeafSize]uint32

// Config describes the simulated device.
type Config struct {
	// Capacity is the logical (host-visible) size in bytes. It must be a
	// multiple of the block size (PageSize*PagesPerBlock).
	Capacity int64
	// PageSize is the flash page size; host I/O is remapped at this
	// granularity. Typically 4096.
	PageSize int
	// PagesPerBlock is the number of pages per erase block.
	PagesPerBlock int
	// OverProvision is the fraction of extra physical capacity (e.g. 0.12).
	OverProvision float64
	// GCLowWater is the fraction of free physical blocks below which garbage
	// collection runs (e.g. 0.05).
	GCLowWater float64
	// QueueDepth is the number of in-flight commands the device accepts
	// (NCQ-style); further commands queue in FIFO order.
	QueueDepth int

	// ReadBase/WriteBase are fixed per-command latencies; ReadBandwidth and
	// WriteBandwidth (bytes/second) model bus+array streaming throughput.
	ReadBase       time.Duration
	WriteBase      time.Duration
	ReadBandwidth  int64
	WriteBandwidth int64
	// ProgramPage is the flash program time charged to GC page migration.
	ProgramPage time.Duration
	// EraseBlock is the flash erase time charged when GC recycles a block.
	EraseBlock time.Duration
	// SeqReadFactor scales the fixed read latency for reads that continue a
	// detected sequential stream (read-ahead hit); 1 disables the effect.
	SeqReadFactor float64

	// CarryData stores and returns real page contents. Use only for small
	// functional tests; benchmark sweeps run size-only.
	CarryData bool
}

// DefaultConfig models one OSD device of the paper's testbed: two Intel SSD
// 730s behind a RAID-0 hardware controller (≈1.1 GB/s read, ≈0.9 GB/s
// write, SATA-era latencies).
func DefaultConfig(capacity int64) Config {
	return Config{
		Capacity:       capacity,
		PageSize:       4096,
		PagesPerBlock:  256,
		OverProvision:  0.12,
		GCLowWater:     0.05,
		QueueDepth:     16,
		ReadBase:       95 * time.Microsecond,
		WriteBase:      35 * time.Microsecond,
		ReadBandwidth:  1100 << 20, // ~1.1 GB/s
		WriteBandwidth: 900 << 20,  // ~0.9 GB/s
		ProgramPage:    60 * time.Microsecond,
		EraseBlock:     2 * time.Millisecond,
		SeqReadFactor:  0.30,
		CarryData:      false,
	}
}

func (c *Config) validate() error {
	if c.PageSize <= 0 || c.PagesPerBlock <= 0 {
		return fmt.Errorf("ssd: invalid geometry page=%d pages/block=%d", c.PageSize, c.PagesPerBlock)
	}
	blockBytes := int64(c.PageSize) * int64(c.PagesPerBlock)
	if c.Capacity <= 0 || c.Capacity%blockBytes != 0 {
		return fmt.Errorf("ssd: capacity %d must be a positive multiple of block size %d", c.Capacity, blockBytes)
	}
	if c.OverProvision <= 0 {
		return fmt.Errorf("ssd: over-provisioning must be positive")
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("ssd: queue depth must be positive")
	}
	if c.SeqReadFactor <= 0 || c.SeqReadFactor > 1 {
		return fmt.Errorf("ssd: SeqReadFactor must be in (0,1]")
	}
	if c.ReadBandwidth <= 0 || c.WriteBandwidth <= 0 {
		return fmt.Errorf("ssd: bandwidths must be positive")
	}
	return nil
}

type block struct {
	p2l        []uint32 // physical page slot -> logical page (unmapped if free/stale); nil until first programmed
	written    int      // pages programmed so far
	valid      int      // pages still mapped
	eraseCount int64
}

// Stats aggregates device counters. Host counters measure the block-level
// I/O arriving at the device (the quantity the paper's Figs 13-15 report);
// flash counters additionally include FTL-internal traffic (GC migrations,
// sub-page RMW), i.e. the media wear discussed in §I.
type Stats struct {
	HostReadBytes   int64
	HostWriteBytes  int64
	HostReadOps     int64
	HostWriteOps    int64
	FlashReadBytes  int64
	FlashWriteBytes int64
	GCMigratedPages int64
	Erases          int64
	TrimmedBytes    int64
	// Gray-failure injection outcomes (zero on a healthy device).
	InjectedFaults int64
	StuckIOs       int64
}

// Degradation models a gray-failed device: degraded but alive. Unlike a
// fail-stop outage the device keeps accepting and completing commands — it
// just serves them slowly, hangs on some, or returns intermittent errors.
// The zero value is a healthy device.
type Degradation struct {
	// LatencyMultiplier scales every request's service time. Values <= 0
	// and 1 mean healthy speed.
	LatencyMultiplier float64
	// ErrorProb is the per-request probability of an injected intermittent
	// I/O error: the request completes (time passes, counters move) but is
	// reported faulted through TakeFault.
	ErrorProb float64
	// StuckProb is the per-request probability of a stuck I/O: the request
	// parks for StuckDelay on top of its service time before completing
	// (or erroring, if the error draw also hits).
	StuckProb float64
	// StuckDelay is the hang added to a stuck request.
	StuckDelay time.Duration
}

// Active reports whether any knob deviates from healthy behaviour.
func (g Degradation) Active() bool {
	return (g.LatencyMultiplier > 0 && g.LatencyMultiplier != 1) ||
		g.ErrorProb > 0 || g.StuckProb > 0
}

func (g Degradation) validate() error {
	if g.ErrorProb < 0 || g.ErrorProb > 1 || g.StuckProb < 0 || g.StuckProb > 1 {
		return fmt.Errorf("ssd: degradation probabilities must be in [0,1]: %+v", g)
	}
	if g.LatencyMultiplier < 0 {
		return fmt.Errorf("ssd: negative latency multiplier %g", g.LatencyMultiplier)
	}
	if g.StuckProb > 0 && g.StuckDelay <= 0 {
		return fmt.Errorf("ssd: StuckProb %g needs a positive StuckDelay", g.StuckProb)
	}
	return nil
}

// WriteAmplification returns flash writes / host writes (0 if nothing
// written).
func (s Stats) WriteAmplification() float64 {
	if s.HostWriteBytes == 0 {
		return 0
	}
	return float64(s.FlashWriteBytes) / float64(s.HostWriteBytes)
}

// Device is one simulated SSD (or RAID-0 pair presented as a single OSD
// device, as in the paper's testbed).
type Device struct {
	cfg    Config
	e      *sim.Engine
	name   string
	queue  *sim.Resource
	blocks []block
	l2p    []*l2pLeaf // logical page -> physical page id, by leaf (nil leaf: all unmapped)
	free   []int      // free block indexes (LIFO)
	active int        // block currently being filled
	data   map[int64][]byte

	lastReadEnd  int64 // sequential-read detector
	lastWriteEnd int64 // sequential-write detector (write-buffer merge)

	st   Stats
	busy *stats.Counter // busy time integral, ns

	// Gray-failure injection (SetDegradation). rng draws happen at request
	// entry, in simulated event order, so injection is deterministic; a
	// healthy device draws nothing.
	deg       Degradation
	rng       *rand.Rand
	faultPend int64 // injected faults not yet taken (TakeFault)

	tracer func(op byte, off, length int64)
}

// New creates a device. The name is used in diagnostics and traces.
func New(e *sim.Engine, name string, cfg Config) (*Device, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	logicalPages := cfg.Capacity / int64(cfg.PageSize)
	physBlocks := int(float64(logicalPages)*(1+cfg.OverProvision))/cfg.PagesPerBlock + 2
	d := &Device{
		cfg:    cfg,
		e:      e,
		name:   name,
		queue:  sim.NewResource(e, name+"/queue", cfg.QueueDepth),
		blocks: make([]block, physBlocks),
		l2p:    make([]*l2pLeaf, (logicalPages+l2pLeafSize-1)>>l2pLeafBits),
		busy:   &stats.Counter{},
	}
	d.free = make([]int, 0, physBlocks-1)
	for i := physBlocks - 1; i >= 1; i-- {
		d.free = append(d.free, i)
	}
	d.active = 0
	if cfg.CarryData {
		d.data = map[int64][]byte{}
	}
	d.lastReadEnd = -1
	d.lastWriteEnd = -1
	return d, nil
}

// fillUnmapped sets every entry to unmapped with doubling copy() spans
// (memmove) instead of a per-element store loop.
func fillUnmapped(s []uint32) {
	if len(s) == 0 {
		return
	}
	s[0] = unmapped
	for n := 1; n < len(s); n *= 2 {
		copy(s[n:], s[:n])
	}
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Capacity returns the logical capacity in bytes.
func (d *Device) Capacity() int64 { return d.cfg.Capacity }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.st }

// SetTracer installs a callback invoked for every host-level I/O ('R', 'W')
// and trim ('T'), for blktrace-style capture. Pass nil to remove it.
func (d *Device) SetTracer(fn func(op byte, off, length int64)) { d.tracer = fn }

// ResetStats zeroes the counters and the busy-time accumulator together, so
// per-phase busy fractions computed from a mid-scenario reset line up with
// the per-phase byte/op counters (FTL state is preserved).
func (d *Device) ResetStats() {
	d.st = Stats{}
	d.busy.Reset()
}

// SetDegradation installs (or, with a zero Degradation, clears) gray-failure
// injection. rng drives the error/stuck draws and must be non-nil whenever
// ErrorProb or StuckProb is positive; seed it per device so injection is
// deterministic and independent across OSDs. Invalid knobs are rejected.
func (d *Device) SetDegradation(deg Degradation, rng *rand.Rand) error {
	if err := deg.validate(); err != nil {
		return err
	}
	if (deg.ErrorProb > 0 || deg.StuckProb > 0) && rng == nil {
		return fmt.Errorf("ssd %s: probabilistic degradation needs an rng", d.name)
	}
	d.deg, d.rng = deg, rng
	return nil
}

// ClearDegradation restores healthy behaviour and drops pending faults.
func (d *Device) ClearDegradation() {
	d.deg, d.rng, d.faultPend = Degradation{}, nil, 0
}

// Degradation returns the installed knobs (zero value when healthy).
func (d *Device) Degradation() Degradation { return d.deg }

// TakeFault reports whether any injected intermittent error completed on
// this device since the last call, and clears the record. Callers treat it
// as "this request faulted"; when requests to the same device overlap in
// virtual time, attribution may swap between them — immaterial for per-OSD
// health accounting, which is the intended consumer.
func (d *Device) TakeFault() bool {
	f := d.faultPend > 0
	d.faultPend = 0
	return f
}

func (d *Device) pageOf(off int64) int64 { return off / int64(d.cfg.PageSize) }

// lookup returns the physical page backing lpn, or unmapped.
func (d *Device) lookup(lpn int64) uint32 {
	leaf := d.l2p[lpn>>l2pLeafBits]
	if leaf == nil {
		return unmapped
	}
	return leaf[lpn&(l2pLeafSize-1)]
}

// mapping returns the map slot of lpn, allocating its leaf on first use.
func (d *Device) mapping(lpn int64) *uint32 {
	leaf := d.l2p[lpn>>l2pLeafBits]
	if leaf == nil {
		leaf = new(l2pLeaf)
		fillUnmapped(leaf[:])
		d.l2p[lpn>>l2pLeafBits] = leaf
	}
	return &leaf[lpn&(l2pLeafSize-1)]
}

// invalidate drops the reverse mapping of a physical page whose logical
// page was overwritten, trimmed or migrated.
func (d *Device) invalidate(phys uint32) {
	b, slot := d.decodePhys(phys)
	d.blocks[b].p2l[slot] = unmapped
	d.blocks[b].valid--
}

func (d *Device) checkRange(off, length int64) {
	if off < 0 || length <= 0 || off+length > d.cfg.Capacity {
		panic(fmt.Sprintf("ssd %s: out-of-range I/O off=%d len=%d cap=%d", d.name, off, length, d.cfg.Capacity))
	}
}

// physPageID encodes (block, slot).
func (d *Device) physPageID(b, slot int) uint32 {
	return uint32(b*d.cfg.PagesPerBlock + slot)
}

func (d *Device) decodePhys(p uint32) (b, slot int) {
	return int(p) / d.cfg.PagesPerBlock, int(p) % d.cfg.PagesPerBlock
}

// allocPage programs one logical page into the active block, running GC
// first if free space is low. It returns the flash work performed (pages
// migrated by GC) so the caller can charge time for it.
func (d *Device) allocPage(lpn int64) (migrated int) {
	migrated = d.maybeGC()
	d.program(lpn)
	return migrated
}

// program maps lpn to the next slot of the active block (moving on to a
// free block when the active one is full) and invalidates the page's
// previous mapping. It never triggers GC, so GC migrates pages through it.
func (d *Device) program(lpn int64) {
	blk := &d.blocks[d.active]
	if blk.written == d.cfg.PagesPerBlock {
		if len(d.free) == 0 {
			panic("ssd: no free blocks (over-provisioning exhausted)")
		}
		d.active = d.free[len(d.free)-1]
		d.free = d.free[:len(d.free)-1]
		blk = &d.blocks[d.active]
	}
	if blk.p2l == nil {
		blk.p2l = make([]uint32, d.cfg.PagesPerBlock)
		fillUnmapped(blk.p2l)
	}
	m := d.mapping(lpn)
	if *m != unmapped {
		d.invalidate(*m)
	}
	slot := blk.written
	blk.p2l[slot] = uint32(lpn)
	blk.written++
	blk.valid++
	*m = d.physPageID(d.active, slot)
}

// maybeGC reclaims blocks greedily (minimum valid pages first) until the
// free pool is above the low-water mark. It returns pages migrated.
func (d *Device) maybeGC() (migrated int) {
	low := int(float64(len(d.blocks)) * d.cfg.GCLowWater)
	if low < 1 {
		low = 1
	}
	for len(d.free) < low {
		victim, fewest := -1, 0
		for i := range d.blocks {
			b := &d.blocks[i]
			if i == d.active || b.written < d.cfg.PagesPerBlock {
				continue
			}
			if victim < 0 || b.valid < fewest {
				victim, fewest = i, b.valid
			}
		}
		if victim < 0 {
			return migrated // nothing eligible; writes will fill the active block
		}
		vb := &d.blocks[victim]
		if vb.valid == d.cfg.PagesPerBlock {
			// Device is genuinely full of valid data; GC cannot help.
			return migrated
		}
		// Migrate valid pages into the active block.
		for slot, lpn := range vb.p2l {
			if lpn == unmapped {
				continue
			}
			m := d.mapping(int64(lpn)) // the page was mapped once, so its leaf exists
			if *m != d.physPageID(victim, slot) {
				continue // stale
			}
			d.st.FlashReadBytes += int64(d.cfg.PageSize)
			d.st.FlashWriteBytes += int64(d.cfg.PageSize)
			d.st.GCMigratedPages++
			migrated++
			// Unmap here, where block and slot are known, so program need
			// not decode them back out of the old mapping.
			vb.p2l[slot] = unmapped
			vb.valid--
			*m = unmapped
			d.program(int64(lpn))
		}
		// Erase and free the victim.
		for j := range vb.p2l {
			vb.p2l[j] = unmapped
		}
		vb.written = 0
		vb.valid = 0
		vb.eraseCount++
		d.st.Erases++
		d.free = append(d.free, victim)
	}
	return migrated
}

// Read performs a host read of [off, off+length). In CarryData mode it
// returns the stored bytes (zeroes for never-written ranges); otherwise it
// returns nil.
func (d *Device) Read(p *sim.Proc, off, length int64) []byte {
	d.checkRange(off, length)
	d.st.HostReadOps++
	d.st.HostReadBytes += length
	if d.tracer != nil {
		d.tracer('R', off, length)
	}

	firstPage := d.pageOf(off)
	lastPage := d.pageOf(off + length - 1)
	pages := lastPage - firstPage + 1
	d.st.FlashReadBytes += pages * int64(d.cfg.PageSize)

	seq := off == d.lastReadEnd
	d.lastReadEnd = off + length

	base := d.cfg.ReadBase
	if seq {
		base = time.Duration(float64(base) * d.cfg.SeqReadFactor)
	}
	svc := base + xferTime(length, d.cfg.ReadBandwidth)
	d.serve(p, svc)

	if !d.cfg.CarryData {
		return nil
	}
	out := make([]byte, length)
	for pg := firstPage; pg <= lastPage; pg++ {
		pdata, ok := d.data[pg]
		if !ok {
			continue
		}
		pStart := pg * int64(d.cfg.PageSize)
		for i := 0; i < d.cfg.PageSize; i++ {
			abs := pStart + int64(i)
			if abs >= off && abs < off+length {
				out[abs-off] = pdata[i]
			}
		}
	}
	return out
}

// Write performs a host write of [off, off+length). In CarryData mode data
// must hold length bytes; otherwise data may be nil.
func (d *Device) Write(p *sim.Proc, off int64, data []byte, length int64) {
	d.checkRange(off, length)
	if data != nil && int64(len(data)) != length {
		panic("ssd: data length does not match write length")
	}
	d.st.HostWriteOps++
	d.st.HostWriteBytes += length
	if d.tracer != nil {
		d.tracer('W', off, length)
	}

	firstPage := d.pageOf(off)
	lastPage := d.pageOf(off + length - 1)
	ps := int64(d.cfg.PageSize)

	seqMerge := off == d.lastWriteEnd
	d.lastWriteEnd = off + length

	migrated := 0
	rmwPages := 0
	for pg := firstPage; pg <= lastPage; pg++ {
		pStart, pEnd := pg*ps, (pg+1)*ps
		full := off <= pStart && off+length >= pEnd
		if !full && !seqMerge && d.lookup(pg) != unmapped {
			// Sub-page overwrite of mapped data: internal read-modify-write.
			// A sequential sub-page stream coalesces in the write buffer
			// instead (no RMW), which is why a bare SSD's sequential small
			// writes beat random ones (Fig 18b baseline).
			d.st.FlashReadBytes += ps
			rmwPages++
		}
		migrated += d.allocPage(pg)
		d.st.FlashWriteBytes += ps
	}

	svc := d.cfg.WriteBase + xferTime(length, d.cfg.WriteBandwidth)
	if rmwPages > 0 {
		svc += time.Duration(rmwPages) * d.cfg.ReadBase / 2
	}
	if migrated > 0 {
		svc += time.Duration(migrated) * d.cfg.ProgramPage
	}
	d.serve(p, svc)

	if d.cfg.CarryData {
		for pg := firstPage; pg <= lastPage; pg++ {
			pdata, ok := d.data[pg]
			if !ok {
				pdata = make([]byte, d.cfg.PageSize)
				d.data[pg] = pdata
			}
			pStart := pg * ps
			for i := 0; i < d.cfg.PageSize; i++ {
				abs := pStart + int64(i)
				if abs >= off && abs < off+length {
					if data == nil {
						pdata[i] = 0 // nil data writes zeroes
					} else {
						pdata[i] = data[abs-off]
					}
				}
			}
		}
	}
}

// Corrupt flips the stored bytes of [off, off+length) in place: a silent
// media error. No host command is issued — no virtual time passes, no
// counters move, no FTL state changes. Only pages that carry data are
// touched; in size-only mode the corruption exists purely in higher-level
// bookkeeping.
func (d *Device) Corrupt(off, length int64) {
	d.checkRange(off, length)
	if !d.cfg.CarryData {
		return
	}
	ps := int64(d.cfg.PageSize)
	for pg := d.pageOf(off); pg <= d.pageOf(off+length-1); pg++ {
		pdata, ok := d.data[pg]
		if !ok {
			continue
		}
		pStart := pg * ps
		for i := 0; i < d.cfg.PageSize; i++ {
			abs := pStart + int64(i)
			if abs >= off && abs < off+length {
				pdata[i] ^= 0xFF
			}
		}
	}
}

// Trim unmaps whole pages fully covered by [off, off+length), making them
// GC-reclaimable without migration (issued by the object store when objects
// are deleted or extents freed).
func (d *Device) Trim(off, length int64) {
	d.checkRange(off, length)
	if d.tracer != nil {
		d.tracer('T', off, length)
	}
	ps := int64(d.cfg.PageSize)
	firstPage := (off + ps - 1) / ps // first fully covered page
	lastPage := (off + length) / ps  // one past last fully covered
	for pg := firstPage; pg < lastPage; pg++ {
		if phys := d.lookup(pg); phys != unmapped {
			d.invalidate(phys)
			*d.mapping(pg) = unmapped
			d.st.TrimmedBytes += ps
			if d.cfg.CarryData {
				delete(d.data, pg)
			}
		}
	}
}

// xferTime is the streaming time for n bytes at bw bytes/second.
func xferTime(n, bw int64) time.Duration {
	return time.Duration(n * int64(time.Second) / bw)
}

// serve queues the request and holds a device slot for the service time,
// applying any installed degradation: the latency multiplier and stuck-I/O
// hang stretch the service time, the error draw records an injected fault
// for TakeFault. Draws happen at request entry so they follow simulated
// event order deterministically.
func (d *Device) serve(p *sim.Proc, svc time.Duration) {
	if d.deg.Active() {
		if m := d.deg.LatencyMultiplier; m > 0 && m != 1 {
			svc = time.Duration(float64(svc) * m)
		}
		if d.deg.StuckProb > 0 && d.rng.Float64() < d.deg.StuckProb {
			svc += d.deg.StuckDelay
			d.st.StuckIOs++
		}
		if d.deg.ErrorProb > 0 && d.rng.Float64() < d.deg.ErrorProb {
			d.faultPend++
			d.st.InjectedFaults++
		}
	}
	d.queue.Acquire(p, 1)
	d.busy.Add(int64(svc))
	p.Sleep(svc)
	d.queue.Release(1)
}

// BusySeconds returns the cumulative device service time in seconds (sum
// over queue slots; can exceed wall time under concurrency).
func (d *Device) BusySeconds() float64 { return float64(d.busy.Value()) / 1e9 }

// CheckInvariants validates FTL bookkeeping (used by tests and enabled
// integrity checks): every mapped logical page must be backed by exactly the
// physical slot that claims it, and per-block valid counts must match.
func (d *Device) CheckInvariants() error {
	validByBlock := make([]int, len(d.blocks))
	for li, leaf := range d.l2p {
		if leaf == nil {
			continue
		}
		for i, phys := range leaf {
			if phys == unmapped {
				continue
			}
			lpn := li<<l2pLeafBits | i
			b, slot := d.decodePhys(phys)
			if b < 0 || b >= len(d.blocks) || slot >= d.cfg.PagesPerBlock {
				return fmt.Errorf("ssd %s: lpn %d maps to invalid phys %d", d.name, lpn, phys)
			}
			if p2l := d.blocks[b].p2l; p2l == nil || p2l[slot] != uint32(lpn) {
				return fmt.Errorf("ssd %s: lpn %d phys %d reverse-map mismatch", d.name, lpn, phys)
			}
			validByBlock[b]++
		}
	}
	for i := range d.blocks {
		b := &d.blocks[i]
		if b.valid != validByBlock[i] {
			return fmt.Errorf("ssd %s: block %d valid=%d, actual=%d", d.name, i, b.valid, validByBlock[i])
		}
		if b.written < b.valid || b.written > d.cfg.PagesPerBlock {
			return fmt.Errorf("ssd %s: block %d written=%d valid=%d", d.name, i, b.written, b.valid)
		}
	}
	return nil
}
