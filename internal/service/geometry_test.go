package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
)

// geometryCases are the object sizes at which stripe geometry changes
// shape for RS(4, 2) with a 64 KiB largest stripe unit — empty, around one
// 512-byte step, a small object, around one full 256 KiB stripe, a ragged
// two-stripe object and a ragged four-stripe one, and two objects over
// bodyHead, whose shard buffers a PUT regrows once (21 stripes) and twice
// (37) — with the stripe unit each is striped at, worked out by hand.
var geometryCases = []struct{ size, chunk int }{
	{0, 512}, {1, 512}, {511, 512}, {512, 512}, {513, 512},
	{8 << 10, 2048},
	{256<<10 - 1, 64 << 10}, {256 << 10, 64 << 10}, {256<<10 + 1, 33280},
	{300 << 10, 38400},
	{3*256<<10 + 7, 49664},
	{5<<20 + 3, 62464}, {9<<20 + 5, 64000},
}

// streamEncoded is the reference shard layout: the k+m shards
// rs.StreamEncode writes for data at chunk, which is what the gateway
// stored before it laid shards out itself.
func streamEncoded(t *testing.T, gw *Gateway, data []byte, chunk int) [][]byte {
	t.Helper()
	bufs := make([]bytes.Buffer, gw.cfg.K+gw.cfg.M)
	writers := make([]io.Writer, len(bufs))
	for i := range bufs {
		writers[i] = &bufs[i]
	}
	if _, err := gw.code.StreamEncode(bytes.NewReader(data), writers, chunk); err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, len(bufs))
	for i := range bufs {
		shards[i] = bufs[i].Bytes()
	}
	return shards
}

// checkReads reads key back healthy, with each single data shard cut off,
// and with one data and one parity shard cut off; osds is its placement.
func checkReads(t *testing.T, gw *Gateway, key string, data []byte, osds []int) {
	t.Helper()
	get := func(what string, wantReconstructed int, down ...int) {
		t.Helper()
		for _, shard := range down {
			if err := gw.FaultStore(osds[shard]).SetFault(FaultSpec{Partition: true}); err != nil {
				t.Fatal(err)
			}
		}
		got, info, err := gw.GetObject(context.Background(), key)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: %s: err=%v match=%v", key, what, err, bytes.Equal(got, data))
		}
		if len(data) == 0 {
			wantReconstructed = 0 // nothing to fetch, nothing to rebuild
		}
		if info.Reconstructed != wantReconstructed || info.Degraded != (wantReconstructed > 0) {
			t.Fatalf("%s: %s: info %+v, want %d reconstructed", key, what, info, wantReconstructed)
		}
		for _, shard := range down {
			if err := gw.FaultStore(osds[shard]).SetFault(FaultSpec{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	get("healthy", 0)
	for d := 0; d < gw.cfg.K; d++ {
		get(fmt.Sprintf("data shard %d down", d), 1, d)
	}
	get("data shard 0 and parity shard 0 down", 1, 0, gw.cfg.K)
}

// storedBytes sums what the MemStores hold.
func storedBytes(t *testing.T, stores []ShardStore) int64 {
	t.Helper()
	var sum int64
	for _, s := range stores {
		st, err := s.Stat(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sum += st.Bytes
	}
	return sum
}

// TestStripeGeometry: at every boundary size an object round-trips healthy,
// with each single data shard cut off, and with one data and one parity
// shard cut off; what the stores hold for it is exactly (k+m) × shardLen —
// at most 512 bytes per chunk over (k+m)/k × size — and byte for byte what
// rs.StreamEncode writes at the object's chunk; and shards that
// StreamEncode wrote (the layout every gateway before this one left
// behind) read back the same three ways.
func TestStripeGeometry(t *testing.T) {
	ctx := context.Background()
	for _, c := range geometryCases {
		size := c.size
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			stores := memStores(6)
			// No breakers: this test cuts the same OSDs off again and
			// again, and a tripped breaker would turn the healthy reads in
			// between into degraded ones.
			gw := buildGateway(t, stores, func(cfg *GatewayConfig) { cfg.BreakerThreshold = 0 })
			k, m := gw.cfg.K, gw.cfg.M
			data := payload(size, int64(size)+1)
			oi, err := gw.PutObject(ctx, "geo", data)
			if err != nil || oi.Written != k+m {
				t.Fatalf("put: %+v, err %v", oi, err)
			}

			chunk := gw.chunkFor(int64(size))
			if meta, _ := gw.lookup("geo"); chunk != c.chunk || meta.chunk != c.chunk {
				t.Fatalf("striped at %d (chunkFor says %d), want %d", meta.chunk, chunk, c.chunk)
			}
			stripes := ceilDiv(int64(size), int64(k*gw.cfg.ChunkSize))
			stored := storedBytes(t, stores)
			if want := int64(k+m) * gw.shardLen(int64(size), chunk); stored != want {
				t.Fatalf("stores hold %d bytes, want (k+m) × shardLen = %d (chunk %d)", stored, want, chunk)
			}
			if bound := int64(k+m)*int64(size)/int64(k) + int64(k+m)*stripes*512; stored > bound {
				t.Fatalf("stores hold %d bytes for a %d-byte object, bound %d", stored, size, bound)
			}

			ref := streamEncoded(t, gw, data, chunk)
			meta, _ := gw.lookup("geo")
			for i, osd := range oi.OSDs {
				got, err := stores[osd].Get(ctx, meta.skey, i)
				if err != nil || !bytes.Equal(got, ref[i]) {
					t.Fatalf("shard %d: err=%v, %d bytes stored, StreamEncode writes %d; equal=%v", i, err, len(got), len(ref[i]), bytes.Equal(got, ref[i]))
				}
			}
			checkReads(t, gw, "geo", data, oi.OSDs)

			// The same object as a parent gateway left it: StreamEncode's
			// shards in the stores, the record in the index.
			if size == 0 {
				return // no shard bytes to lay out either way
			}
			seeded := &objectMeta{size: int64(size), chunk: chunk, skey: "old@1", osds: oi.OSDs, ok: make([]bool, k+m)}
			for i, osd := range oi.OSDs {
				seeded.ok[i] = true
				if err := stores[osd].Put(ctx, seeded.skey, i, ref[i]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := gw.commit("old", seeded); err != nil {
				t.Fatal(err)
			}
			checkReads(t, gw, "old", data, oi.OSDs)
		})
	}
}

// TestOverwriteAcrossGeometries: overwriting one key with objects of
// different stripe units (8 KiB → 1 MiB → 8 KiB) leaves only the live
// generation's shards, each of the live geometry's length.
func TestOverwriteAcrossGeometries(t *testing.T) {
	ctx := context.Background()
	stores := memStores(6)
	gw := buildGateway(t, stores, nil)
	for gen, size := range []int{8 << 10, 1 << 20, 8 << 10} {
		data := payload(size, int64(gen))
		if _, err := gw.PutObject(ctx, "resize", data); err != nil {
			t.Fatalf("put %d bytes: %v", size, err)
		}
		meta, _ := gw.lookup("resize")
		for _, s := range stores {
			for _, name := range s.(*MemStore).Keys() {
				if !strings.HasPrefix(name, meta.skey+"#") {
					t.Fatalf("after the %d-byte overwrite osd holds %q, not of the live generation %q", size, name, meta.skey)
				}
			}
		}
		want := int64(gw.cfg.K+gw.cfg.M) * gw.shardLen(int64(size), meta.chunk)
		if stored := storedBytes(t, stores); stored != want {
			t.Fatalf("after the %d-byte overwrite stores hold %d bytes, want %d", size, stored, want)
		}
		if got, _, err := gw.GetObject(ctx, "resize"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("get after the %d-byte overwrite: err=%v match=%v", size, err, bytes.Equal(got, data))
		}
	}
}
