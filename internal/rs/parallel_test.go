package rs

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

func TestWithConcurrency(t *testing.T) {
	c := mustNew(4, 2)
	if c.Concurrency() != 1 {
		t.Fatalf("default concurrency = %d, want 1 (serial)", c.Concurrency())
	}
	if got := c.WithConcurrency(7).Concurrency(); got != 7 {
		t.Fatalf("WithConcurrency(7).Concurrency() = %d", got)
	}
	if got := c.WithConcurrency(0).Concurrency(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("WithConcurrency(0) = %d, want GOMAXPROCS", got)
	}
	if c.Concurrency() != 1 {
		t.Fatal("WithConcurrency must not mutate the receiver")
	}
	// The derived codec must share the generator and still round-trip.
	p := c.WithConcurrency(4)
	shards := randShards(t, p, 4096, 77)
	if err := p.Encode(shards); err != nil {
		t.Fatal(err)
	}
	if !verify(c, shards) {
		t.Fatal("parallel Encode's parity differs from the generator's")
	}
}

// encodeConfigs returns the (k,m) grid the differential tests sweep,
// including the paper's RS(6,3) and RS(10,4).
func encodeConfigs() [][2]int {
	return [][2]int{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {6, 3}, {10, 4}}
}

// unalignedSizes exercises shard sizes with 1..129-byte tails around the
// vector kernel's 32/64-byte block boundaries and the parallel span size.
func unalignedSizes() []int {
	return []int{1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129,
		4096 + 17, 32<<10 + 1, 64<<10 + 129}
}

// TestEncodeDifferential: for every config, size and concurrency, the
// encoded parity must be byte-identical to the generator's definition.
func TestEncodeDifferential(t *testing.T) {
	for _, km := range encodeConfigs() {
		base := mustNew(km[0], km[1])
		for _, size := range unalignedSizes() {
			ref := randShards(t, base, size, int64(size)*31+int64(km[0]))
			encodeByDefinition(base, ref)
			for _, conc := range []int{1, 2, 5} {
				got := cloneShards(ref)
				for i := base.k; i < base.k+base.m; i++ {
					clear(got[i]) // wipe parity so Encode must recompute it
				}
				if err := base.WithConcurrency(conc).Encode(got); err != nil {
					t.Fatal(err)
				}
				for i := range ref {
					if !bytes.Equal(got[i], ref[i]) {
						t.Fatalf("RS(%d,%d) size=%d conc=%d: shard %d differs from the definition",
							km[0], km[1], size, conc, i)
					}
				}
			}
		}
	}
}

// TestReconstructDifferential drops random shard subsets of a stripe
// encoded by definition, and checks the parallel reconstruction restores
// it exactly.
func TestReconstructDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, km := range encodeConfigs() {
		c := mustNew(km[0], km[1])
		for _, size := range []int{1, 129, 4096 + 17, 64<<10 + 1} {
			full := randShards(t, c, size, int64(size)+int64(km[1]))
			encodeByDefinition(c, full)
			for trial := 0; trial < 6; trial++ {
				nDrop := 1 + rng.Intn(km[1])
				dropped := rng.Perm(c.k + c.m)[:nDrop]

				got := cloneShards(full)
				for _, d := range dropped {
					got[d] = nil
				}
				if err := c.WithConcurrency(4).Reconstruct(got); err != nil {
					t.Fatal(err)
				}
				for i := range full {
					if !bytes.Equal(got[i], full[i]) {
						t.Fatalf("RS(%d,%d) size=%d drop=%v: shard %d differs",
							km[0], km[1], size, dropped, i)
					}
				}
			}
		}
	}
}

// TestUpdateParityDifferential checks the incremental parity update
// against re-encoding the new data by definition, across concurrency
// levels, on unaligned sizes.
func TestUpdateParityDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for _, km := range [][2]int{{4, 2}, {6, 3}, {10, 4}} {
		c := mustNew(km[0], km[1])
		for _, size := range []int{1, 33, 127, 4096 + 5} {
			shards := randShards(t, c, size, int64(size)*7)
			encodeByDefinition(c, shards)
			idx := rng.Intn(c.k)
			newData := make([]byte, size)
			rng.Read(newData)

			want := cloneShards(shards)
			want[idx] = newData
			encodeByDefinition(c, want)
			got := cloneShards(shards)
			if err := c.WithConcurrency(3).UpdateParity(idx, got[idx], newData, got[c.k:]); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < c.m; p++ {
				if !bytes.Equal(got[c.k+p], want[c.k+p]) {
					t.Fatalf("RS(%d,%d) size=%d: parity %d differs", km[0], km[1], size, p)
				}
			}
			// And the updated parity must still verify against the new data.
			got[idx] = newData
			if !verify(c, got) {
				t.Fatalf("RS(%d,%d) size=%d: updated stripe fails verify",
					km[0], km[1], size)
			}
		}
	}
}

// TestParallelEncodeAliasedSources covers encode input shards that alias
// each other (the same buffer appearing as two data shards).
func TestParallelEncodeAliasedSources(t *testing.T) {
	c := mustNew(4, 2).WithConcurrency(4)
	size := 32<<10 + 7
	shared := make([]byte, size)
	rand.New(rand.NewSource(5)).Read(shared)
	shards := make([][]byte, 6)
	shards[0] = shared
	shards[1] = shared // aliases shard 0
	shards[2] = make([]byte, size)
	shards[3] = make([]byte, size)
	shards[4] = make([]byte, size)
	shards[5] = make([]byte, size)
	rand.New(rand.NewSource(6)).Read(shards[2])
	rand.New(rand.NewSource(7)).Read(shards[3])
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	if !verify(c, shards) {
		t.Fatal("aliased-source encode fails verify")
	}
}

// TestMeasureEncodeMBps sanity-checks the calibration helper.
func TestMeasureEncodeMBps(t *testing.T) {
	c := mustNew(4, 2)
	mbps := MeasureEncodeMBps(c, 16<<10, 5e6) // 5ms window
	if mbps <= 0 {
		t.Fatalf("MeasureEncodeMBps = %v, want > 0", mbps)
	}
	if bad := MeasureEncodeMBps(c, -1, -1); bad <= 0 {
		t.Fatalf("MeasureEncodeMBps with defaulted args = %v, want > 0", bad)
	}
}

// BenchmarkEncode compares the by-definition baseline (one gf.Mul per
// term) against the serial and parallel codec on the active tier for
// RS(4,2) on 64 KiB shards (plus the paper's configs), reporting MB/s of
// data encoded.
func BenchmarkEncode(b *testing.B) {
	for _, km := range [][2]int{{4, 2}, {6, 3}, {10, 4}} {
		c := mustNew(km[0], km[1])
		for _, mode := range []struct {
			name   string
			encode func([][]byte) error
		}{
			{"definition", func(s [][]byte) error { encodeByDefinition(c, s); return nil }},
			{"serial", c.Encode},
			{"parallel", c.WithConcurrency(0).Encode},
		} {
			name := fmt.Sprintf("RS(%d,%d)/64KiB/%s", km[0], km[1], mode.name)
			b.Run(name, func(b *testing.B) {
				shards := randShards(b, c, 64<<10, 42)
				b.SetBytes(int64(km[0]) * 64 << 10)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := mode.encode(shards); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
