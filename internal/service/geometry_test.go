package service

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// geometryCases are the object sizes at which stripe geometry changes
// shape for RS(4, 2) with a 64 KiB largest stripe unit — empty, around one
// 512-byte step, a small object, around one full 256 KiB stripe, a ragged
// two-stripe object and a ragged four-stripe one — with the stripe unit
// each is striped at, worked out by hand.
var geometryCases = []struct{ size, chunk int }{
	{0, 512}, {1, 512}, {511, 512}, {512, 512}, {513, 512},
	{8 << 10, 2048},
	{256<<10 - 1, 64 << 10}, {256 << 10, 64 << 10}, {256<<10 + 1, 33280},
	{300 << 10, 38400},
	{3*256<<10 + 7, 49664},
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
// shard cut off; and what the stores hold for it is exactly
// (k+m) × shardLen — at most 512 bytes per chunk over (k+m)/k × size.
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

			get := func(what string, wantReconstructed int, down ...int) {
				t.Helper()
				for _, shard := range down {
					if err := gw.FaultStore(oi.OSDs[shard]).SetFault(FaultSpec{Partition: true}); err != nil {
						t.Fatal(err)
					}
				}
				got, info, err := gw.GetObject(ctx, "geo")
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("%s: err=%v match=%v", what, err, bytes.Equal(got, data))
				}
				if size == 0 {
					wantReconstructed = 0 // nothing to fetch, nothing to rebuild
				}
				if info.Reconstructed != wantReconstructed || info.Degraded != (wantReconstructed > 0) {
					t.Fatalf("%s: info %+v, want %d reconstructed", what, info, wantReconstructed)
				}
				for _, shard := range down {
					if err := gw.FaultStore(oi.OSDs[shard]).SetFault(FaultSpec{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			get("healthy", 0)
			for d := 0; d < k; d++ {
				get(fmt.Sprintf("data shard %d down", d), 1, d)
			}
			get("data shard 0 and parity shard 0 down", 1, 0, k)
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
