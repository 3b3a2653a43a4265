package ssd

import (
	"math/rand"
	"runtime"
	"testing"

	"ecarray/internal/sim"
)

// denseFTL is the FTL as ssd.go held it before the maps became sparse: one
// l2p array covering every logical page and one p2l array per block, all
// allocated and filled with unmapped up front. It keeps state and counters
// only (no virtual time), and is the reference the lazy Device is compared
// against.
type denseFTL struct {
	cfg          Config
	blocks       []denseBlock
	l2p          []uint32
	free         []int
	active       int
	lastWriteEnd int64
	st           Stats
}

type denseBlock struct {
	p2l            []uint32
	written, valid int
}

func newDenseFTL(cfg Config) *denseFTL {
	logicalPages := cfg.Capacity / int64(cfg.PageSize)
	physBlocks := int(float64(logicalPages)*(1+cfg.OverProvision))/cfg.PagesPerBlock + 2
	f := &denseFTL{
		cfg:          cfg,
		blocks:       make([]denseBlock, physBlocks),
		l2p:          make([]uint32, logicalPages),
		lastWriteEnd: -1,
	}
	fillUnmapped(f.l2p)
	for i := range f.blocks {
		f.blocks[i].p2l = make([]uint32, cfg.PagesPerBlock)
		fillUnmapped(f.blocks[i].p2l)
	}
	for i := physBlocks - 1; i >= 1; i-- {
		f.free = append(f.free, i)
	}
	return f
}

func (f *denseFTL) physPageID(b, slot int) uint32 { return uint32(b*f.cfg.PagesPerBlock + slot) }

func (f *denseFTL) allocPage(lpn int64) (migrated int) {
	migrated = f.maybeGC()
	f.allocPageNoGC(lpn)
	return migrated
}

func (f *denseFTL) allocPageNoGC(lpn int64) {
	blk := &f.blocks[f.active]
	if blk.written == f.cfg.PagesPerBlock {
		f.active = f.free[len(f.free)-1]
		f.free = f.free[:len(f.free)-1]
		blk = &f.blocks[f.active]
	}
	if old := f.l2p[lpn]; old != unmapped {
		ob := &f.blocks[int(old)/f.cfg.PagesPerBlock]
		ob.p2l[int(old)%f.cfg.PagesPerBlock] = unmapped
		ob.valid--
	}
	slot := blk.written
	blk.p2l[slot] = uint32(lpn)
	blk.written++
	blk.valid++
	f.l2p[lpn] = f.physPageID(f.active, slot)
}

func (f *denseFTL) maybeGC() (migrated int) {
	low := int(float64(len(f.blocks)) * f.cfg.GCLowWater)
	if low < 1 {
		low = 1
	}
	for len(f.free) < low {
		victim := -1
		for i := range f.blocks {
			b := &f.blocks[i]
			if i == f.active || b.written < f.cfg.PagesPerBlock {
				continue
			}
			if victim < 0 || b.valid < f.blocks[victim].valid {
				victim = i
			}
		}
		if victim < 0 {
			return migrated
		}
		vb := &f.blocks[victim]
		if vb.valid == f.cfg.PagesPerBlock {
			return migrated
		}
		for slot, lpn := range vb.p2l {
			if lpn == unmapped || f.l2p[lpn] != f.physPageID(victim, slot) {
				continue
			}
			f.st.FlashReadBytes += int64(f.cfg.PageSize)
			f.st.FlashWriteBytes += int64(f.cfg.PageSize)
			f.st.GCMigratedPages++
			migrated++
			vb.p2l[slot] = unmapped
			vb.valid--
			f.l2p[lpn] = unmapped
			f.allocPageNoGC(int64(lpn))
		}
		fillUnmapped(vb.p2l)
		vb.written, vb.valid = 0, 0
		f.st.Erases++
		f.free = append(f.free, victim)
	}
	return migrated
}

func (f *denseFTL) write(off, length int64) {
	f.st.HostWriteOps++
	f.st.HostWriteBytes += length
	ps := int64(f.cfg.PageSize)
	seqMerge := off == f.lastWriteEnd
	f.lastWriteEnd = off + length
	for pg := off / ps; pg <= (off+length-1)/ps; pg++ {
		full := off <= pg*ps && off+length >= (pg+1)*ps
		if !full && !seqMerge && f.l2p[pg] != unmapped {
			f.st.FlashReadBytes += ps
		}
		f.allocPage(pg)
		f.st.FlashWriteBytes += ps
	}
}

// TestLazyMapsMatchDenseReference drives seeded random write / overwrite /
// sub-page-RMW sequences, long enough to force GC on a small
// over-provisioned device, through the Device and the dense reference, and
// requires the same counters, the same physical page for every logical page
// and clean invariants after every step.
func TestLazyMapsMatchDenseReference(t *testing.T) {
	const (
		capacity = 8 * testBlockBytes // 2048 pages: two l2p leaves, ten blocks
		steps    = 2500
		ps       = 4096
	)
	for seed := int64(1); seed <= 4; seed++ {
		cfg := DefaultConfig(capacity)
		e := newEngine(t)
		d, err := New(e, "lazy", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newDenseFTL(cfg)
		rng := rand.New(rand.NewSource(seed))
		pages := int64(capacity / ps)
		run(t, e, func(p *sim.Proc) {
			for step := 0; step < steps; step++ {
				var off, length int64
				switch op := rng.Intn(8); {
				case op < 5: // whole pages: first writes and overwrites
					n := 1 + rng.Int63n(8)
					pg := rng.Int63n(pages - n + 1)
					off, length = pg*ps, n*ps
				case op < 7: // sub-page, may straddle a page boundary: RMW
					off = rng.Int63n(capacity - ps)
					length = 1 + rng.Int63n(ps-1)
				default: // continues the previous write: merges, no RMW
					off, length = ref.lastWriteEnd, 1+rng.Int63n(2*ps)
					if off < 0 || off+length > capacity {
						off, length = 0, ps/2
					}
				}
				d.Write(p, off, nil, length)
				ref.write(off, length)
				if got := d.Stats(); got != ref.st {
					t.Errorf("seed %d step %d: stats %+v, dense reference %+v", seed, step, got, ref.st)
					return
				}
				for lpn := int64(0); lpn < pages; lpn++ {
					if got := d.lookup(lpn); got != ref.l2p[lpn] {
						t.Errorf("seed %d step %d: lpn %d maps to %d, dense reference %d", seed, step, lpn, got, ref.l2p[lpn])
						return
					}
				}
				if err := d.CheckInvariants(); err != nil {
					t.Errorf("seed %d step %d: %v", seed, step, err)
					return
				}
			}
		})
		e.Close()
		if st := d.Stats(); st.GCMigratedPages == 0 || st.Erases == 0 {
			t.Errorf("seed %d: sequence never reached GC: %+v", seed, st)
		}
	}
}

// TestNewDeviceIsSparse pins construction cost to the block table: a 2 GiB
// device with dense maps allocated about 4.6 MB, 24 of them per cluster.
func TestNewDeviceIsSparse(t *testing.T) {
	e := newEngine(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := New(e, "d", DefaultConfig(2<<30))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Errorf("New allocated %d bytes for a 2 GiB device, want < 256 KiB", got)
	}
	if d.lookup(2<<30/4096-1) != unmapped {
		t.Error("untouched page reads as mapped")
	}
}
