package rs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ecarray/internal/gf"
)

// fusedTailSizes covers every 1..129-byte shard size (the unaligned tails
// of the vector kernels' blocks) plus sizes straddling the fused kernels'
// 256-byte chunk and the parallel span boundary.
func fusedTailSizes() []int {
	sizes := make([]int, 0, 140)
	for n := 1; n <= 129; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 255, 256, 257, 511, 512, 513, 4096+17, 32<<10+129)
	return sizes
}

// TestFusedEncodeDifferential proves the active kernel tier is
// byte-identical to the generator's definition across the full k∈{2..10},
// m∈{1..4} grid on unaligned 1..129-byte shard tails.
func TestFusedEncodeDifferential(t *testing.T) {
	sizes := fusedTailSizes()
	for k := 2; k <= 10; k++ {
		for m := 1; m <= 4; m++ {
			c := mustNew(k, m)
			// Each (k,m) cell samples a rotating subset of sizes so the grid
			// stays fast; every size is still covered many times across cells.
			for si := (k*7 + m) % 4; si < len(sizes); si += 4 {
				size := sizes[si]
				ref := randShards(t, c, size, int64(k*1000+m*100+size))
				encodeByDefinition(c, ref)
				got := cloneShards(ref)
				for i := c.k; i < c.k+c.m; i++ {
					clear(got[i])
				}
				if err := c.Encode(got); err != nil {
					t.Fatal(err)
				}
				for i := range ref {
					if !bytes.Equal(got[i], ref[i]) {
						t.Fatalf("RS(%d,%d) size=%d tier=%v: shard %d differs from the definition",
							k, m, size, gf.ActiveKernel(), i)
					}
				}
			}
		}
	}
}

// TestFusedEncodeAliasedSources: the same buffer appearing as several data
// shards must encode by the definition (sources are read-only in the fused
// kernels).
func TestFusedEncodeAliasedSources(t *testing.T) {
	c := mustNew(6, 3)
	size := 4096 + 31
	shared := make([]byte, size)
	rand.New(rand.NewSource(17)).Read(shared)
	shards := make([][]byte, 9)
	shards[0], shards[1], shards[2] = shared, shared, shared
	for i := 3; i < 9; i++ {
		shards[i] = make([]byte, size)
		rand.New(rand.NewSource(int64(18 + i))).Read(shards[i])
	}
	ref := cloneShards(shards)
	encodeByDefinition(c, ref)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], ref[i]) {
			t.Fatalf("tier %v: aliased encode shard %d differs", gf.ActiveKernel(), i)
		}
	}
}

// TestFusedReconstructAndUpdateDifferential runs reconstruction and
// incremental parity updates on the active tier against the definition on
// the paper's configurations.
func TestFusedReconstructAndUpdateDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, km := range [][2]int{{6, 3}, {10, 4}} {
		c := mustNew(km[0], km[1])
		for _, size := range []int{1, 129, 257, 4096 + 17} {
			full := randShards(t, c, size, int64(size)*13)
			encodeByDefinition(c, full)
			for trial := 0; trial < 3; trial++ {
				nDrop := 1 + rng.Intn(km[1])
				dropped := rng.Perm(c.k + c.m)[:nDrop]
				got := cloneShards(full)
				for _, d := range dropped {
					got[d] = nil
				}
				if err := c.WithConcurrency(3).Reconstruct(got); err != nil {
					t.Fatal(err)
				}
				for i := range full {
					if !bytes.Equal(got[i], full[i]) {
						t.Fatalf("RS(%d,%d) size=%d drop=%v: shard %d differs",
							km[0], km[1], size, dropped, i)
					}
				}

				idx := rng.Intn(c.k)
				newData := make([]byte, size)
				rng.Read(newData)
				want := cloneShards(full)
				want[idx] = newData
				encodeByDefinition(c, want)
				upd := cloneShards(full)
				if err := c.UpdateParity(idx, upd[idx], newData, upd[c.k:]); err != nil {
					t.Fatal(err)
				}
				for p := 0; p < c.m; p++ {
					if !bytes.Equal(upd[c.k+p], want[c.k+p]) {
						t.Fatalf("RS(%d,%d) size=%d: updated parity %d differs",
							km[0], km[1], size, p)
					}
				}
			}
		}
	}
}

// BenchmarkEncodeTiers reports serial encode on the paper's configurations
// at 64 KiB shards, on the tier the CPU picked (named in the sub-benchmark).
// internal/gf's BenchmarkMulMatrix and BenchmarkMulSources hold the
// per-tier numbers.
func BenchmarkEncodeTiers(b *testing.B) {
	for _, km := range [][2]int{{6, 3}, {10, 4}} {
		b.Run(fmt.Sprintf("RS(%d,%d)/64KiB/%s", km[0], km[1], gf.ActiveKernel()), func(b *testing.B) {
			c := mustNew(km[0], km[1])
			shards := randShards(b, c, 64<<10, 42)
			b.SetBytes(int64(km[0]) * 64 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Encode(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
