package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
)

// getObject reads an object back into memory: GetObjectTo over a buffer.
func (g *Gateway) getObject(ctx context.Context, key string) ([]byte, GetInfo, error) {
	var out bytes.Buffer
	info, _, err := g.GetObjectTo(ctx, key, &out, func(info GetInfo) { out.Grow(int(info.Size)) })
	if err != nil {
		return nil, info, err
	}
	return out.Bytes(), info, nil
}

// deleteObject removes key through the gateway's HTTP front door.
func (c *GateClient) deleteObject(ctx context.Context, key string) error {
	_, err := c.doRetry(ctx, http.MethodDelete, key, nil, nil)
	return err
}

// status fetches /v1/status.
func (c *GateClient) status(ctx context.Context) (st StatusInfo, err error) {
	err = c.call(ctx, http.MethodGet, "/v1/status", nil, &st)
	return st, err
}

// metricsText fetches the raw /metrics exposition.
func (c *GateClient) metricsText(ctx context.Context) (string, error) {
	var raw []byte
	err := c.call(ctx, http.MethodGet, "/metrics", nil, &raw)
	return string(raw), err
}

func payload(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestObjectRoundTrip covers put/get/delete on the healthy path, including
// sizes that are not stripe-aligned and the empty object.
func TestObjectRoundTrip(t *testing.T) {
	gw := buildGateway(t, memStores(6), nil)
	ctx := context.Background()
	for _, size := range []int{0, 1, 4096, 64 << 10, 256<<10 + 17, 1 << 20} {
		key := fmt.Sprintf("obj-%d", size)
		data := payload(size, int64(size)+7)
		oi, err := gw.PutObject(ctx, key, data)
		if err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		if oi.Size != int64(size) || oi.Written != oi.Shards {
			t.Fatalf("put %s: info %+v", key, oi)
		}
		got, info, err := gw.getObject(ctx, key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if info.Degraded {
			t.Fatalf("get %s: unexpectedly degraded", key)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("get %s: payload mismatch (%d vs %d bytes)", key, len(got), len(data))
		}
		if err := gw.DeleteObject(ctx, key); err != nil {
			t.Fatalf("delete %s: %v", key, err)
		}
	}
}

// TestDegradedReadEveryDataShard kills, in turn, the OSD behind each data
// shard and checks the read is served byte-identical via reconstruction.
func TestDegradedReadEveryDataShard(t *testing.T) {
	gw := buildGateway(t, memStores(6), nil)
	ctx := context.Background()
	data := payload(300<<10+999, 3)
	oi, err := gw.PutObject(ctx, "victim", data)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	for shard := 0; shard < gw.cfg.K; shard++ {
		osd := oi.OSDs[shard]
		if err := gw.osds[osd].store.SetFault(FaultSpec{Partition: true}); err != nil {
			t.Fatalf("fail osd %d: %v", osd, err)
		}
		got, info, err := gw.getObject(ctx, "victim")
		if err != nil {
			t.Fatalf("degraded get (shard %d down): %v", shard, err)
		}
		if !info.Degraded || info.Reconstructed != 1 {
			t.Fatalf("shard %d down: info %+v, want degraded with 1 reconstruction", shard, info)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("shard %d down: payload mismatch", shard)
		}
		if err := gw.osds[osd].store.SetFault(FaultSpec{}); err != nil {
			t.Fatalf("restore osd %d: %v", osd, err)
		}
	}
	if n := gw.reg.Counter("ecgate_degraded_reads_total").Value(); n != int64(gw.cfg.K) {
		t.Fatalf("degraded_reads_total = %d, want %d", n, gw.cfg.K)
	}
}

// TestParityShardLoss kills a parity OSD: reads stay non-degraded because
// all k data shards are intact.
func TestParityShardLoss(t *testing.T) {
	gw := buildGateway(t, memStores(6), nil)
	ctx := context.Background()
	data := payload(128<<10, 11)
	oi, err := gw.PutObject(ctx, "pobj", data)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := gw.osds[oi.OSDs[gw.cfg.K]].store.SetFault(FaultSpec{Partition: true}); err != nil {
		t.Fatal(err)
	}
	got, info, err := gw.getObject(ctx, "pobj")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if info.Degraded {
		t.Fatalf("parity loss should not degrade data reads: %+v", info)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch")
	}
}

// TestInsufficientShards fails m+1 OSDs of an object's placement: GET and
// a fresh PUT both return ErrInsufficientShards, and the failed PUT leaves
// no orphan shards behind.
func TestInsufficientShards(t *testing.T) {
	gw := buildGateway(t, memStores(6), nil)
	ctx := context.Background()
	data := payload(96<<10, 5)
	oi, err := gw.PutObject(ctx, "doomed", data)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	for _, osd := range oi.OSDs[:gw.cfg.M+1] {
		if err := gw.osds[osd].store.SetFault(FaultSpec{Partition: true}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := gw.getObject(ctx, "doomed"); !errors.Is(err, ErrInsufficientShards) {
		t.Fatalf("get with %d OSDs down: got %v, want ErrInsufficientShards", gw.cfg.M+1, err)
	}
	if _, err := gw.PutObject(ctx, "doomed", data); !errors.Is(err, ErrInsufficientShards) {
		t.Fatalf("put with OSDs down: got %v, want ErrInsufficientShards", err)
	}
	// The failed overwrite must not have destroyed or orphaned anything on
	// the surviving OSDs beyond the original object's shards.
	for _, osd := range oi.OSDs[:gw.cfg.M+1] {
		if err := gw.osds[osd].store.SetFault(FaultSpec{}); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := gw.getObject(ctx, "doomed")
	if err != nil {
		t.Fatalf("get after restore: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch after failed overwrite")
	}
}

// TestNotFoundAfterDelete checks the delete → 404 contract at the API
// layer.
func TestNotFoundAfterDelete(t *testing.T) {
	gw := buildGateway(t, memStores(6), nil)
	ctx := context.Background()
	if _, err := gw.PutObject(ctx, "gone", payload(4096, 1)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := gw.DeleteObject(ctx, "gone"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, _, err := gw.getObject(ctx, "gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: got %v, want ErrNotFound", err)
	}
	if err := gw.DeleteObject(ctx, "gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: got %v, want ErrNotFound", err)
	}
}

// blockStore is a ShardStore whose Put parks until release is closed —
// the admission-overload fixture.
type blockStore struct {
	*MemStore
	enter   func()
	release chan struct{}
}

func (b *blockStore) Put(ctx context.Context, key string, shard int, data []byte) error {
	b.enter()
	select {
	case <-b.release:
	case <-ctx.Done():
	}
	return b.MemStore.Put(ctx, key, shard, data)
}

// parkedGateway returns a gateway whose single admission slot is held by a
// PUT parked in its stores; unpark lets that PUT finish and checks it did.
func parkedGateway(t *testing.T) (gw *Gateway, unpark func()) {
	t.Helper()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	stores := make([]ShardStore, 6)
	for i := range stores {
		stores[i] = &blockStore{MemStore: NewMemStore(i), enter: func() { once.Do(func() { close(entered) }) }, release: release}
	}
	gw = buildGateway(t, stores, func(cfg *GatewayConfig) { cfg.MaxInflight = 1 })
	parked := make(chan error, 1)
	go func() {
		_, err := gw.PutObject(context.Background(), "slow", payload(4096, 1))
		parked <- err
	}()
	<-entered // the parked PUT holds the only admission slot
	return gw, func() {
		t.Helper()
		close(release)
		if err := <-parked; err != nil {
			t.Fatalf("parked put: %v", err)
		}
	}
}

// TestAdmissionOverload saturates a MaxInflight=1 gateway and checks the
// second request is rejected with ErrOverloaded while the first completes.
func TestAdmissionOverload(t *testing.T) {
	gw, unpark := parkedGateway(t)
	if _, err := gw.PutObject(context.Background(), "rejected", payload(4096, 2)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second put: got %v, want ErrOverloaded", err)
	}
	unpark()
	if n := gw.reg.Counter("ecgate_admission_rejected_total").Value(); n != 1 {
		t.Fatalf("admission_rejected_total = %d, want 1", n)
	}
}
