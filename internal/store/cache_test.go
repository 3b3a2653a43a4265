package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ecarray/internal/sim"
)

// refObject is the flat reference model of one object: its bytes as reads
// return them, and which blocks carry written data (only those can be
// corrupted: a hole or a never-written block has no media bytes).
type refObject struct {
	size    int64
	data    []byte // covers every written block, past size included
	written map[int64]bool
}

// TestBlockCacheCarryModel runs a seeded mix of aligned and sub-block
// writes, reads and corruptions against a carry-mode store with a cache
// small enough to evict, and checks every read against the flat model. The
// cache counters are pinned for this seed.
func TestBlockCacheCarryModel(t *testing.T) {
	e := newEngine(t)
	st := newStore(t, e, true, func(c *Config) { c.CacheBlocks = 16 })
	const bs = 4096
	rng := rand.New(rand.NewSource(7))
	ref := map[string]*refObject{}
	names := []string{"a", "b", "c", "d"}
	span := func() (off, n int64) {
		if rng.Intn(2) == 0 { // aligned
			return int64(rng.Intn(24)) * bs, int64(1+rng.Intn(6)) * bs
		}
		return int64(rng.Intn(96 << 10)), int64(1 + rng.Intn(3*bs))
	}
	run(t, e, func(p *sim.Proc) {
		for step := 0; step < 3000; step++ {
			name := names[rng.Intn(len(names))]
			r := ref[name]
			switch op := rng.Intn(18); {
			case op < 7: // write
				off, n := span()
				buf := make([]byte, n)
				rng.Read(buf)
				st.Write(p, name, off, buf, n)
				if r == nil {
					r = &refObject{written: map[int64]bool{}}
					ref[name] = r
				}
				lo, hi := off/bs*bs, (off+n+bs-1)/bs*bs
				if int64(len(r.data)) < hi {
					r.data = append(r.data, make([]byte, hi-int64(len(r.data)))...)
				}
				clear(r.data[lo:hi]) // the store zero-pads a block's unwritten part
				copy(r.data[off:], buf)
				for b := lo; b < hi; b += bs {
					r.written[b] = true
				}
				r.size = max(r.size, off+n)
			case op < 16: // read
				off, n := span()
				got := st.Read(p, name, off, n)
				want := make([]byte, n)
				if r != nil {
					for b := off / bs * bs; b < off+n && b < r.size; b += bs {
						lo, hi := max(off, b), min(off+n, b+bs)
						copy(want[lo-off:hi-off], r.data[lo:hi])
					}
				}
				if !bytes.Equal(got, want) {
					t.Errorf("step %d: read %s [%d,+%d) differs from the model", step, name, off, n)
					return
				}
			default: // corrupt
				off, n := span()
				st.Corrupt(name, off, n)
				if r == nil {
					continue
				}
				for b := off / bs * bs; b < off+n && b < r.size; b += bs {
					if !r.written[b] {
						continue
					}
					for i := max(off, b); i < min(off+n, b+bs); i++ {
						r.data[i] ^= 0xFF
					}
				}
			}
		}
	})
	s := st.Stats()
	got := fmt.Sprintf("hits=%d misses=%d rmw=%d", s.CacheHits, s.CacheMisses, s.RMWReads)
	// Pinned for this seed: a change to admission, eviction or RMW moves it.
	const want = "hits=725 misses=4741 rmw=874"
	if got != want {
		t.Fatalf("cache counters %s, want %s", got, want)
	}
}

// TestBlockSetMatchesMap drives the open-addressed set and a map through
// the same random adds and drops and compares every key after each step.
// Keys come from a pool crowded onto the table's last and first slots, so
// probe runs wrap around the end and backward-shift deletion has to move
// members across it.
func TestBlockSetMatchesMap(t *testing.T) {
	const capacity = 16 // 32 slots: four lines of eight
	for seed := int64(0); seed < 50; seed++ {
		b := newBlockSet(capacity)
		n := len(b.slots)
		var pool []int64
		for k := int64(0); len(pool) < 4*capacity; k++ {
			if h := b.home(k); h >= n-3 || h == 0 {
				pool = append(pool, k)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		ref := map[int64]bool{}
		for step := 0; step < 400; step++ {
			k := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 && (ref[k] || len(ref) < capacity) {
				b.add(k)
				ref[k] = true
			} else {
				b.drop(k)
				delete(ref, k)
			}
			members := 0
			for _, s := range b.slots {
				if s != 0 {
					members++
				}
			}
			if members != len(ref) {
				t.Fatalf("seed %d step %d: %d slots taken, model holds %d", seed, step, members, len(ref))
			}
			for _, k := range pool {
				if b.has(k) != ref[k] {
					t.Fatalf("seed %d step %d: has(%d) = %v, model %v", seed, step, k, b.has(k), ref[k])
				}
			}
		}
	}
}
