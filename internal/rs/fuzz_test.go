package rs

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"ecarray/internal/gf"
)

// FuzzEncodeReconstruct is the codec round-trip fuzz target: derive an
// RS(k,m) config and shard contents from the fuzz input, encode, drop up
// to m shards (pattern also input-derived), reconstruct, and require the
// original bytes back. It cross-checks the parallel codec's parity against
// the generator's definition (encodeByDefinition) on every input, so a
// kernel or sharding bug found by the fuzzer is attributed immediately.
//
// Run `go test -fuzz=FuzzEncodeReconstruct ./internal/rs` to explore; the
// checked-in corpus under testdata/fuzz covers the (k,m) grid including
// the paper's RS(6,3) and RS(10,4).
// FuzzStreamRoundTrip is the streaming round-trip fuzz target:
// StreamEncode an input-derived payload at an input-derived chunk size,
// drop an input-derived subset of shard streams, StreamDecode, and
// require the original bytes back. It also cross-checks the parity shard
// streams against the generator's definition so a kernel divergence on the
// streaming path is attributed immediately.
//
// Run `go test -fuzz=FuzzStreamRoundTrip ./internal/rs` to explore; the
// checked-in corpus under testdata/fuzz covers the paper's RS(6,3) and
// RS(10,4), single-byte chunks, padding tails, and erasure patterns.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add([]byte("a"), byte(1), byte(1), byte(1), uint16(0))
	f.Add([]byte("stream me please"), byte(4), byte(2), byte(7), uint16(1))
	f.Add(bytes.Repeat([]byte{0x5a}, 1000), byte(6), byte(3), byte(64), uint16(0b101))
	f.Add(bytes.Repeat([]byte("f4"), 300), byte(10), byte(4), byte(32), uint16(0b10010001))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0}, byte(2), byte(2), byte(3), uint16(0xffff))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, mRaw, chunkRaw byte, lostMask uint16) {
		k := 1 + int(kRaw)%10
		m := 1 + int(mRaw)%4
		chunk := 1 + int(chunkRaw)%300
		if len(data) == 0 {
			data = []byte{1}
		}
		if len(data) > 1<<15 {
			data = data[:1<<15]
		}
		c := mustNew(k, m)

		bufs := make([]*bytes.Buffer, k+m)
		ws := make([]io.Writer, k+m)
		for i := range ws {
			bufs[i] = &bytes.Buffer{}
			ws[i] = bufs[i]
		}
		n, err := c.StreamEncode(bytes.NewReader(data), ws, chunk)
		if err != nil {
			t.Fatalf("RS(%d,%d) chunk=%d: StreamEncode: %v", k, m, chunk, err)
		}
		if n != int64(len(data)) {
			t.Fatalf("StreamEncode consumed %d bytes, want %d", n, len(data))
		}
		got := make([][]byte, k+m)
		for i := range got {
			got[i] = bufs[i].Bytes()
		}
		// Coding is bytewise, so whole parity streams must equal the
		// definition applied to whole data streams.
		ref := cloneShards(got)
		encodeByDefinition(c, ref)
		for i := range ref {
			if !bytes.Equal(got[i], ref[i]) {
				t.Fatalf("RS(%d,%d) chunk=%d: shard stream %d differs from the definition on the %v kernel",
					k, m, chunk, i, gf.ActiveKernel())
			}
		}

		// Drop up to m streams per the mask, then decode what remains.
		readers := make([]io.Reader, k+m)
		dropped := 0
		for i := range readers {
			if lostMask&(1<<i) != 0 && dropped < m {
				dropped++
				continue
			}
			readers[i] = bytes.NewReader(ref[i])
		}
		var out bytes.Buffer
		if err := c.StreamDecode(&out, readers, int64(len(data)), chunk); err != nil {
			t.Fatalf("RS(%d,%d) chunk=%d mask=%b: StreamDecode: %v", k, m, chunk, lostMask, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("RS(%d,%d) chunk=%d mask=%b: payload not recovered", k, m, chunk, lostMask)
		}
	})
}

func FuzzEncodeReconstruct(f *testing.F) {
	f.Add(byte(1), byte(1), int64(1), []byte("a"))
	f.Add(byte(2), byte(1), int64(2), []byte("hello rs"))
	f.Add(byte(4), byte(2), int64(3), bytes.Repeat([]byte{0xa5}, 130))
	f.Add(byte(6), byte(3), int64(4), []byte("the paper's RS(6,3) Colossus configuration"))
	f.Add(byte(10), byte(4), int64(5), bytes.Repeat([]byte("f4"), 65))
	f.Add(byte(12), byte(4), int64(-77), []byte{0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, kRaw, mRaw byte, seed int64, data []byte) {
		k := 1 + int(kRaw)%12
		m := 1 + int(mRaw)%5
		c, err := New(k, m)
		if err != nil {
			t.Skip()
		}
		if len(data) == 0 {
			data = []byte{0}
		}
		// Shard size: spread the input across k shards with a tail, capped
		// so the fuzzer stays fast.
		size := (len(data) + k - 1) / k
		if size > 8<<10 {
			size = 8 << 10
		}
		shards := make([][]byte, k+m)
		for i := range shards {
			shards[i] = make([]byte, size)
		}
		for i := 0; i < k; i++ {
			lo := i * size
			if lo < len(data) {
				hi := lo + size
				if hi > len(data) {
					hi = len(data)
				}
				copy(shards[i], data[lo:hi])
			}
		}

		// Encode by definition, then with the parallel codec; both
		// parities must agree bit for bit.
		ref := cloneShards(shards)
		encodeByDefinition(c, ref)
		par := c.WithConcurrency(4)
		if err := par.Encode(shards); err != nil {
			t.Fatalf("parallel encode: %v", err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], ref[i]) {
				t.Fatalf("RS(%d,%d): parallel shard %d differs from the definition", k, m, i)
			}
		}

		// Drop up to m shards chosen by the seed, then reconstruct.
		rng := rand.New(rand.NewSource(seed))
		nDrop := 1 + rng.Intn(m)
		order := rng.Perm(k + m)
		damaged := cloneShards(shards)
		for _, d := range order[:nDrop] {
			damaged[d] = nil
		}
		if err := par.Reconstruct(damaged); err != nil {
			t.Fatalf("RS(%d,%d) drop %v: reconstruct: %v", k, m, order[:nDrop], err)
		}
		for i := range shards {
			if !bytes.Equal(damaged[i], shards[i]) {
				t.Fatalf("RS(%d,%d) drop %v: shard %d not restored", k, m, order[:nDrop], i)
			}
		}
		if !verify(c, damaged) {
			t.Fatalf("RS(%d,%d): reconstructed stripe fails verify", k, m)
		}

		// The same shards missing as zero-length slices over stale bytes:
		// each is rebuilt in place into its capacity, by Reconstruct and by
		// ReconstructData (which leaves missing parity as it was).
		for _, dataOnly := range []bool{false, true} {
			damaged := cloneShards(shards)
			stale := make(map[int][]byte, nDrop)
			for _, d := range order[:nDrop] {
				stale[d] = bytes.Repeat([]byte{0xFF}, size)
				damaged[d] = stale[d][:0]
			}
			reconstruct := par.Reconstruct
			if dataOnly {
				reconstruct = par.ReconstructData
			}
			if err := reconstruct(damaged); err != nil {
				t.Fatalf("RS(%d,%d) drop %v in place: reconstruct: %v", k, m, order[:nDrop], err)
			}
			for _, d := range order[:nDrop] {
				if dataOnly && d >= k {
					if len(damaged[d]) != 0 {
						t.Fatalf("RS(%d,%d): ReconstructData rebuilt parity shard %d", k, m, d)
					}
					continue
				}
				if !bytes.Equal(damaged[d], shards[d]) || &damaged[d][0] != &stale[d][0] {
					t.Fatalf("RS(%d,%d) drop %v: shard %d not restored in place", k, m, order[:nDrop], d)
				}
			}
		}
	})
}
