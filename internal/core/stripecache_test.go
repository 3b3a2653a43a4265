package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refStripeCache is the stripe cache whose FIFO re-sliced a growing slice,
// kept as the reference for the ring's eviction order.
type refStripeCache struct {
	cap          int
	entries      map[stripeKey][][]byte
	order        []stripeKey
	hits, misses int64
}

func (sc *refStripeCache) get(k stripeKey) ([][]byte, bool) {
	v, ok := sc.entries[k]
	if ok {
		sc.hits++
	} else {
		sc.misses++
	}
	return v, ok
}

func (sc *refStripeCache) put(k stripeKey, chunks [][]byte) {
	if sc.cap == 0 {
		return
	}
	if _, ok := sc.entries[k]; !ok {
		sc.order = append(sc.order, k)
		for len(sc.order) > sc.cap {
			evict := sc.order[0]
			sc.order = sc.order[1:]
			delete(sc.entries, evict)
		}
	}
	sc.entries[k] = chunks
}

func (sc *refStripeCache) drop(k stripeKey) {
	if _, ok := sc.entries[k]; ok {
		delete(sc.entries, k)
		sc.order = slices.DeleteFunc(sc.order, func(o stripeKey) bool { return o == k })
	}
}

func (sc *refStripeCache) clear() {
	sc.entries = map[stripeKey][][]byte{}
	sc.order = nil
}

// fifo lists the cached keys oldest first.
func (sc *stripeCache) fifo() []stripeKey {
	var out []stripeKey
	for i := range len(sc.entries) {
		out = append(out, sc.order[(sc.head+i)%sc.cap])
	}
	return out
}

// TestStripeCacheMatchesReference runs seeded put/get/drop/clear scripts
// through the stripe cache and the slice-backed reference: every get, the
// hit and miss counts and the FIFO order (so every eviction) must agree.
func TestStripeCacheMatchesReference(t *testing.T) {
	for _, cap := range []int{0, 1, 2, 5, 16} {
		for seed := int64(0); seed < 20; seed++ {
			sc := newStripeCache(cap)
			ref := &refStripeCache{cap: cap, entries: map[stripeKey][][]byte{}}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 2000; step++ {
				k := stripeKey{fmt.Sprintf("obj%d", rng.Intn(3)), int64(rng.Intn(8))}
				where := fmt.Sprintf("cap %d seed %d step %d", cap, seed, step)
				switch op := rng.Intn(20); {
				case op < 8:
					chunks := [][]byte{{byte(step)}}
					sc.put(k, chunks)
					ref.put(k, chunks)
				case op < 16:
					got, ok := sc.get(k)
					want, wantOK := ref.get(k)
					if ok != wantOK || (ok && &got[0] != &want[0]) {
						t.Fatalf("%s: get %v = %v, %v; reference %v, %v", where, k, got, ok, want, wantOK)
					}
				case op < 19:
					sc.drop(k)
					ref.drop(k)
				default:
					sc.clear()
					ref.clear()
				}
				if got := sc.fifo(); !slices.Equal(got, ref.order) {
					t.Fatalf("%s: FIFO %v, reference %v", where, got, ref.order)
				}
				if sc.hits != ref.hits || sc.misses != ref.misses || len(sc.entries) != len(ref.entries) {
					t.Fatalf("%s: hits/misses/size %d/%d/%d, reference %d/%d/%d", where,
						sc.hits, sc.misses, len(sc.entries), ref.hits, ref.misses, len(ref.entries))
				}
			}
		}
	}
}
