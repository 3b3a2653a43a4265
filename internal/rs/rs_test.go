package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ecarray/internal/gf"
)

func randShards(t testing.TB, c *Code, size int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shards := make([][]byte, c.k+c.m)
	for i := range shards {
		shards[i] = make([]byte, size)
		if i < c.k {
			rng.Read(shards[i])
		}
	}
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	return shards
}

func cloneShards(shards [][]byte) [][]byte {
	out := make([][]byte, len(shards))
	for i, s := range shards {
		if s != nil {
			out[i] = append([]byte(nil), s...)
		}
	}
	return out
}

func mustNew(k, m int) *Code {
	c, err := New(k, m)
	if err != nil {
		panic(err)
	}
	return c
}

// verify reports whether a stripe's parity shards match its data shards
// under encodeByDefinition.
func verify(c *Code, shards [][]byte) bool {
	want := cloneShards(shards)
	encodeByDefinition(c, want)
	for p := c.k; p < c.k+c.m; p++ {
		if !bytes.Equal(want[p], shards[p]) {
			return false
		}
	}
	return true
}

// encodeByDefinition overwrites a stripe's parity shards straight from the
// generator, parity[p][i] = Σ_s gen[k+p][s]·data[s][i], one gf.Mul per
// term: the reference the codec's kernels are held against, sharing no
// code with them.
func encodeByDefinition(c *Code, shards [][]byte) {
	for p := c.k; p < c.k+c.m; p++ {
		for i := range shards[p] {
			var v byte
			for s := 0; s < c.k; s++ {
				v ^= gf.Mul(c.gen.At(p, s), shards[s][i])
			}
			shards[p][i] = v
		}
	}
}

func TestNewValidation(t *testing.T) {
	for _, km := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {200, 100}} {
		if _, err := New(km[0], km[1]); !errors.Is(err, ErrInvalidRSParams) {
			t.Errorf("New(%d,%d) err = %v, want ErrInvalidRSParams", km[0], km[1], err)
		}
	}
	c, err := New(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != "RS(6,3)" {
		t.Fatalf("String() = %q", c.String())
	}
}

// TestEncodeVerify: Encode's parity matches the generator's definition on
// every geometry, and verify notices one corrupted byte.
func TestEncodeVerify(t *testing.T) {
	for _, km := range [][2]int{{6, 3}, {10, 4}, {2, 1}, {4, 2}} {
		c := mustNew(km[0], km[1])
		shards := randShards(t, c, 4096, 42)
		if !verify(c, shards) {
			t.Fatalf("%v: parity differs from the generator's definition", c)
		}
		shards[0][17] ^= 0xff
		if verify(c, shards) {
			t.Fatalf("%v: verify missed a corrupted data byte", c)
		}
	}
}

func TestFirstParityIsXor(t *testing.T) {
	// The generator's first coding row is all ones (paper Fig 3b), so parity
	// shard 0 must equal the XOR of the data shards.
	c := mustNew(6, 3)
	shards := randShards(t, c, 512, 7)
	xor := make([]byte, 512)
	for d := 0; d < 6; d++ {
		for i := range xor {
			xor[i] ^= shards[d][i]
		}
	}
	if !bytes.Equal(xor, shards[6]) {
		t.Fatal("first parity shard is not the XOR of data shards")
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	// Exhaustively erase every subset of size 1..m and reconstruct.
	for _, km := range [][2]int{{6, 3}, {4, 2}} {
		c := mustNew(km[0], km[1])
		orig := randShards(t, c, 1024, 99)
		n := c.k + c.m
		for mask := 1; mask < 1<<n; mask++ {
			erased := 0
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					erased++
				}
			}
			if erased > c.m {
				continue
			}
			work := cloneShards(orig)
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					work[b] = nil
				}
			}
			if err := c.Reconstruct(work); err != nil {
				t.Fatalf("%v mask %b: %v", c, mask, err)
			}
			for b := 0; b < n; b++ {
				if !bytes.Equal(work[b], orig[b]) {
					t.Fatalf("%v mask %b: shard %d mismatch", c, mask, b)
				}
			}
		}
	}
}

func TestReconstructTooManyErasures(t *testing.T) {
	c := mustNew(6, 3)
	shards := randShards(t, c, 256, 3)
	for i := 0; i < 4; i++ {
		shards[i] = nil
	}
	if err := c.Reconstruct(shards); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("err = %v, want ErrTooFewShards", err)
	}
}

func TestReconstructDataOnly(t *testing.T) {
	c := mustNew(6, 3)
	orig := randShards(t, c, 256, 5)
	work := cloneShards(orig)
	work[2] = nil
	work[7] = nil // parity
	if err := c.ReconstructData(work); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(work[2], orig[2]) {
		t.Fatal("data shard not reconstructed")
	}
	if work[7] != nil {
		t.Fatal("ReconstructData must leave parity shards nil")
	}
}

func TestReconstructNoopWhenComplete(t *testing.T) {
	c := mustNew(4, 2)
	orig := randShards(t, c, 128, 11)
	work := cloneShards(orig)
	if err := c.Reconstruct(work); err != nil {
		t.Fatal(err)
	}
	for i := range work {
		if !bytes.Equal(work[i], orig[i]) {
			t.Fatal("Reconstruct must not modify complete shards")
		}
	}
}

func TestReconstructPreservesPresentShards(t *testing.T) {
	c := mustNew(6, 3)
	orig := randShards(t, c, 256, 13)
	work := cloneShards(orig)
	work[0], work[8] = nil, nil
	if err := c.Reconstruct(work); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 8; i++ {
		if !bytes.Equal(work[i], orig[i]) {
			t.Fatalf("present shard %d modified", i)
		}
	}
}

// TestReconstructIntoCapacity: a zero-length missing shard is rebuilt in
// place into its capacity, whatever stale bytes that holds, by Reconstruct
// and ReconstructData alike; a nil one, or one whose capacity is too
// small, gets a new buffer.
func TestReconstructIntoCapacity(t *testing.T) {
	c := mustNew(6, 3)
	orig := randShards(t, c, 1024, 17)
	for _, dataOnly := range []bool{false, true} {
		work := cloneShards(orig)
		stale := bytes.Repeat([]byte{0xFF}, 1024+64)
		work[1] = stale[:0]               // data, rebuilt in place
		work[3] = nil                     // data, allocated
		work[7] = make([]byte, 0, 1024-1) // parity, too small: allocated
		reconstruct := c.Reconstruct
		if dataOnly {
			reconstruct = c.ReconstructData
		}
		if err := reconstruct(work); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{1, 3} {
			if !bytes.Equal(work[i], orig[i]) {
				t.Fatalf("dataOnly=%v: data shard %d not rebuilt", dataOnly, i)
			}
		}
		if &work[1][0] != &stale[0] {
			t.Fatalf("dataOnly=%v: a missing shard with room was rebuilt into a new buffer", dataOnly)
		}
		if dataOnly {
			if len(work[7]) != 0 {
				t.Fatal("ReconstructData rebuilt a parity shard")
			}
		} else if !bytes.Equal(work[7], orig[7]) {
			t.Fatal("parity shard 7 not rebuilt")
		}
	}
}

func TestQuickRandomErasures(t *testing.T) {
	// Property: for random data, random shard size and any random erasure set
	// of size <= m, reconstruction recovers the original content exactly.
	type cfg struct{ K, M uint8 }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(12)
		m := 1 + rng.Intn(5)
		c := mustNew(k, m)
		size := 1 + rng.Intn(2048)
		shards := make([][]byte, c.k+c.m)
		for i := range shards {
			shards[i] = make([]byte, size)
			if i < k {
				rng.Read(shards[i])
			}
		}
		if err := c.Encode(shards); err != nil {
			return false
		}
		orig := cloneShards(shards)
		erasures := rng.Intn(m + 1)
		for i := 0; i < erasures; i++ {
			shards[rng.Intn(k+m)] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		for i := range shards {
			if !bytes.Equal(shards[i], orig[i]) {
				return false
			}
		}
		return verify(c, shards)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEncodeValidation(t *testing.T) {
	c := mustNew(4, 2)
	if err := c.Encode(make([][]byte, 3)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("wrong shard count err = %v", err)
	}
	shards := [][]byte{{1}, {2}, {3}, {4}, {5, 6}, {7}}
	if err := c.Encode(shards); !errors.Is(err, ErrShardSize) {
		t.Fatalf("ragged shards err = %v", err)
	}
	shards = [][]byte{{1}, nil, {3}, {4}, {5}, {6}}
	if err := c.Encode(shards); !errors.Is(err, ErrShardSize) {
		t.Fatalf("nil shard in Encode err = %v", err)
	}
}

func TestUpdateParityMatchesFullEncode(t *testing.T) {
	c := mustNew(6, 3)
	shards := randShards(t, c, 512, 21)
	rng := rand.New(rand.NewSource(22))
	newData := make([]byte, 512)
	rng.Read(newData)

	// Incremental update of data shard 3.
	parity := shards[6:]
	if err := c.UpdateParity(3, shards[3], newData, parity); err != nil {
		t.Fatal(err)
	}
	shards[3] = newData

	if !verify(c, shards) {
		t.Fatal("parity after UpdateParity differs from a full encode")
	}
}

func TestUpdateParityValidation(t *testing.T) {
	c := mustNew(4, 2)
	shards := randShards(t, c, 64, 1)
	if err := c.UpdateParity(9, shards[0], shards[0], shards[4:]); err == nil {
		t.Fatal("bad index must error")
	}
	if err := c.UpdateParity(0, shards[0], shards[0][:10], shards[4:]); !errors.Is(err, ErrShardSize) {
		t.Fatalf("size mismatch err = %v", err)
	}
	if err := c.UpdateParity(0, shards[0], shards[0], shards[4:5]); !errors.Is(err, ErrShardCount) {
		t.Fatalf("parity count err = %v", err)
	}
}

func benchEncode(b *testing.B, k, m, size int) {
	c := mustNew(k, m)
	shards := make([][]byte, c.k+c.m)
	rng := rand.New(rand.NewSource(1))
	for i := range shards {
		shards[i] = make([]byte, size)
		if i < k {
			rng.Read(shards[i])
		}
	}
	b.SetBytes(int64(k * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func benchReconstruct(b *testing.B, k, m, size, erasures int) {
	c := mustNew(k, m)
	orig := make([][]byte, c.k+c.m)
	rng := rand.New(rand.NewSource(1))
	for i := range orig {
		orig[i] = make([]byte, size)
		if i < k {
			rng.Read(orig[i])
		}
	}
	if err := c.Encode(orig); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(k * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make([][]byte, len(orig))
		copy(work, orig)
		for e := 0; e < erasures; e++ {
			work[e] = nil
		}
		if err := c.Reconstruct(work); err != nil {
			b.Fatal(err)
		}
	}
}

// Encoding throughput for the paper's two production configurations with the
// 4KB chunk size Ceph uses.
func BenchmarkEncodeRS6_3(b *testing.B)  { benchEncode(b, 6, 3, 4096) }
func BenchmarkEncodeRS10_4(b *testing.B) { benchEncode(b, 10, 4, 4096) }

// Repair cost, the paper's §II-C decoding discussion.
func BenchmarkReconstructRS6_3(b *testing.B)  { benchReconstruct(b, 6, 3, 4096, 3) }
func BenchmarkReconstructRS10_4(b *testing.B) { benchReconstruct(b, 10, 4, 4096, 4) }
