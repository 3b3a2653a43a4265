package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countStore counts the shard calls that reach a store.
type countStore struct {
	ShardStore
	puts, others *atomic.Int64
}

func (s countStore) Put(ctx context.Context, key string, shard int, data []byte) error {
	s.puts.Add(1)
	return s.ShardStore.Put(ctx, key, shard, data)
}

func (s countStore) Get(ctx context.Context, key string, shard int) ([]byte, error) {
	s.others.Add(1)
	return s.ShardStore.Get(ctx, key, shard)
}

func (s countStore) Delete(ctx context.Context, key string, shard int) error {
	s.others.Add(1)
	return s.ShardStore.Delete(ctx, key, shard)
}

// countStores is six MemStores behind one pair of call counters.
func countStores() (stores []ShardStore, puts, others *atomic.Int64) {
	puts, others = new(atomic.Int64), new(atomic.Int64)
	stores = memStores(6)
	for i, s := range stores {
		stores[i] = countStore{s, puts, others}
	}
	return stores, puts, others
}

// readFunc is an io.Reader made of a function.
type readFunc func([]byte) (int, error)

func (f readFunc) Read(p []byte) (int, error) { return f(p) }

// TestPutRefusedBeforeBody: a PUT the admission gate refuses costs the
// gateway neither the body's bytes nor memory sized by it — the 429 goes
// out with the 4 MiB body unread.
func TestPutRefusedBeforeBody(t *testing.T) {
	gw, unpark := parkedGateway(t)
	h, body := gw.Handler(), make([]byte, 4<<20)
	var code int
	var consumed int64
	allocated := allocatedBy(func() {
		code, consumed = putBody(h, "/v1/objects/refused", body, int64(len(body)))
	})
	if code != http.StatusTooManyRequests || consumed != 0 {
		t.Fatalf("PUT at a full gate: status %d after consuming %d body bytes, want 429 after 0", code, consumed)
	}
	if allocated >= 64<<10 {
		t.Fatalf("a refused 4 MiB PUT allocated %d bytes, want under 64 KiB", allocated)
	}
	unpark()
}

// TestPutStalledBody: an admitted upload holds a slot, so a client that
// sends half its body and stalls is cut off at the request deadline: it
// is answered 400, the slot is free again, no shard of the half-object
// reached a store, and the key's previous generation still reads back.
func TestPutStalledBody(t *testing.T) {
	const timeout = 300 * time.Millisecond
	stores, puts, _ := countStores()
	gw := buildGateway(t, stores, func(cfg *GatewayConfig) {
		cfg.MaxInflight = 1
		cfg.RequestTimeout = timeout
	})
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	gc := NewGateClient(srv.URL)
	gc.SetRetries(0)
	ctx := context.Background()
	prev := payload(100<<10, 1)
	if _, err := gc.PutObject(ctx, "stall/obj", prev); err != nil {
		t.Fatal(err)
	}
	putsBefore := puts.Load()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := fmt.Fprintf(conn, "PUT /v1/objects/stall/obj HTTP/1.1\r\nHost: gw\r\nContent-Length: %d\r\n\r\n", 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, 512<<10)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(start.Add(20 * timeout))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer to the stalled upload: %v", err)
	}
	resp.Body.Close()
	if waited := time.Since(start); resp.StatusCode != http.StatusBadRequest || waited < timeout {
		t.Fatalf("stalled upload: status %d after %v, want 400 once the %v deadline passed", resp.StatusCode, waited, timeout)
	}

	if n := gw.Metrics().Gauge("ecgate_inflight").Value(); n != 0 {
		t.Fatalf("ecgate_inflight = %d after the stalled upload was refused, want 0", n)
	}
	if n := puts.Load() - putsBefore; n != 0 {
		t.Fatalf("%d shard PUTs reached the stores for an upload that never completed", n)
	}
	if got, _, err := gc.GetObject(ctx, "stall/obj"); err != nil || !bytes.Equal(got, prev) {
		t.Fatalf("previous generation after the stalled overwrite: err=%v match=%v", err, bytes.Equal(got, prev))
	}
}

// logRecords hands each JSON log record (slog writes one per Write) to a
// channel, dropping records nobody is waiting for.
type logRecords chan map[string]any

func (c logRecords) Write(p []byte) (int, error) {
	var rec map[string]any
	if json.Unmarshal(p, &rec) == nil {
		select {
		case c <- rec:
		default:
		}
	}
	return len(p), nil
}

// TestGetClientLeavesMidBody: a GET whose client hangs up after the
// response headers is logged as what happened — the bytes that were
// written and the write's error — at the gateway and at the daemon, where
// it used to read status=200 bytes=<all of it>.
func TestGetClientLeavesMidBody(t *testing.T) {
	ctx := context.Background()
	// Larger than loopback's socket buffers, so the write cannot finish
	// before the hang-up is noticed.
	big := payload(16<<20, 7)

	records := make(logRecords, 16)
	logger := slog.New(slog.NewJSONHandler(records, nil))
	gw := buildGateway(t, memStores(6), func(cfg *GatewayConfig) { cfg.Logger = logger })
	if _, err := gw.PutObject(ctx, "big", big); err != nil {
		t.Fatal(err)
	}
	ms := NewMemStore(0)
	if err := ms.Put(ctx, "big", 0, big); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		h    http.Handler
		path string
	}{
		"gateway": {gw.Handler(), "/v1/objects/big"},
		"daemon":  {NewOSDServer(0, ms, logger).Handler(), "/v1/shards/big/0"},
	} {
		srv := httptest.NewServer(c.h)
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.(*net.TCPConn).SetReadBuffer(8 << 10)
		if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: x\r\n\r\n", c.path); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil || resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(big)) {
			t.Fatalf("%s: response %+v, err %v, want a 200 declaring %d bytes", name, resp, err, len(big))
		}
		conn.Close() // unread body in the socket: the peer is reset

		select {
		case rec := <-records:
			sent, _ := rec["bytes"].(float64)
			if rec["op"] != "get" || rec["status"] != float64(http.StatusOK) || rec["error"] == nil || int(sent) >= len(big) {
				t.Fatalf("%s logged %v, want op=get status=200 with the write error and fewer than %d bytes", name, rec, len(big))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no log record for the abandoned GET", name)
		}
		srv.Close()
	}
}

// TestResolvedSeriesExposition: resolving the success series once at
// construction changed how they are reached, not what /metrics says — for
// a sequence that runs every op and fails some, the by-outcome counters
// read exactly as when each request looked its series up by formatted name
// (latency buckets and sums are timing and left out).
func TestResolvedSeriesExposition(t *testing.T) {
	do := func(h http.Handler, method, path, body string) {
		t.Helper()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, strings.NewReader(body)))
	}
	exposition := func(reg *Registry, keep func(line string) bool) string {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var kept strings.Builder
		for _, line := range strings.SplitAfter(buf.String(), "\n") {
			if keep(line) {
				kept.WriteString(line)
			}
		}
		return kept.String()
	}

	osd := NewOSDServer(0, NewMemStore(0), nil)
	osd.maxShard = 8
	h := osd.Handler()
	do(h, http.MethodPut, "/v1/shards/k/0", "hello")
	do(h, http.MethodGet, "/v1/shards/k/0", "")
	do(h, http.MethodGet, "/v1/shards/missing/0", "")
	do(h, http.MethodDelete, "/v1/shards/k/0", "")
	do(h, http.MethodDelete, "/v1/shards/k/0", "")
	do(h, http.MethodPut, "/v1/shards/k/0", "over the limit")
	got := exposition(osd.Metrics(), func(line string) bool {
		return !strings.Contains(line, "_bucket{") && !strings.Contains(line, "_sum{")
	})
	if want := `ecstored_bytes_in_total 5
ecstored_bytes_out_total 5
ecstored_op_seconds_count{op="delete"} 2
ecstored_op_seconds_count{op="get"} 2
ecstored_op_seconds_count{op="put"} 2
ecstored_ops_total{op="delete",code="204"} 1
ecstored_ops_total{op="delete",code="404"} 1
ecstored_ops_total{op="get",code="200"} 1
ecstored_ops_total{op="get",code="404"} 1
ecstored_ops_total{op="put",code="200"} 1
ecstored_ops_total{op="put",code="413"} 1
`; got != want {
		t.Fatalf("daemon /metrics:\n%s\nwant:\n%s", got, want)
	}

	gw := buildGateway(t, memStores(6), nil)
	h = gw.Handler()
	do(h, http.MethodPut, "/v1/objects/k", "hello")
	do(h, http.MethodGet, "/v1/objects/k", "")
	do(h, http.MethodGet, "/v1/objects/missing", "")
	do(h, http.MethodDelete, "/v1/objects/k", "")
	do(h, http.MethodDelete, "/v1/objects/k", "")
	got = exposition(gw.Metrics(), func(line string) bool { return strings.HasPrefix(line, "ecgate_requests_total") })
	if want := `ecgate_requests_total{op="delete",code="204"} 1
ecgate_requests_total{op="delete",code="404"} 1
ecgate_requests_total{op="get",code="200"} 1
ecgate_requests_total{op="get",code="404"} 1
ecgate_requests_total{op="put",code="200"} 1
`; got != want {
		t.Fatalf("gateway /metrics:\n%s\nwant:\n%s", got, want)
	}
}

// FuzzPutObjectFrom: whatever length a PUT declares, however much of it
// arrives and whatever the stripe unit, the gateway refuses an over-limit
// declaration before reading a byte, refuses a short body without a shard
// reaching any store, and otherwise stores exactly the declared bytes.
func FuzzPutObjectFrom(f *testing.F) {
	const limit = 2 << 20 // over bodyHead: the largest objects regrow their shard buffers
	f.Add(100, 100, 64<<10)
	f.Add(100, 50, 512)
	f.Add(0, 0, 1)
	f.Add(1, 0, 64<<10)
	f.Add(-1, 10, 64<<10)
	f.Add(limit+1, limit+1, 4096)
	f.Add(300<<10, 300<<10, 4096)
	f.Add(300<<10, 300<<10-1, 4096)
	f.Add(limit, limit, 64<<10)
	f.Add(limit, bodyHead+1, 64<<10)
	f.Add(limit-3, limit, 1<<20)
	src := payload(limit+1, 8)
	f.Fuzz(func(t *testing.T, size, sent, chunk int) {
		if sent < 0 || sent > len(src) || chunk < 1 || chunk > 1<<20 || size/chunk > 1<<14 {
			t.Skip()
		}
		stores, puts, others := countStores()
		gw := buildGateway(t, stores, func(cfg *GatewayConfig) {
			cfg.ChunkSize = chunk
			cfg.MaxObjectBytes = limit
		})
		ctx := context.Background()
		body := &countingReader{r: bytes.NewReader(src[:sent])}
		_, err := gw.PutObjectFrom(ctx, "fz", body, int64(size))
		calls := puts.Load() + others.Load()
		switch {
		case size < 0 || size > limit:
			want := ErrTooLarge
			if size < 0 {
				want = ErrBadRequest
			}
			if !errors.Is(err, want) || body.n != 0 || calls != 0 {
				t.Fatalf("declared %d: err %v after reading %d bytes and %d store calls, want %v before any", size, err, body.n, calls, want)
			}
		case sent < size:
			if !errors.Is(err, ErrBadRequest) || calls != 0 {
				t.Fatalf("%d sent of %d declared: err %v, %d store calls, want ErrBadRequest and none", sent, size, err, calls)
			}
		default:
			if err != nil || body.n != int64(size) {
				t.Fatalf("%d sent of %d declared: err %v after reading %d", sent, size, err, body.n)
			}
			if got, _, err := gw.GetObject(ctx, "fz"); err != nil || !bytes.Equal(got, src[:size]) {
				t.Fatalf("%d bytes at chunk %d: get err=%v match=%v", size, chunk, err, bytes.Equal(got, src[:size]))
			}
		}
	})
}

// TestPutFromAllocationTrailsBytes is TestReadBodyAllocationTrailsBytes
// for the PUT path that no longer goes through readBody: an upload that
// declares the largest object there is, sends 1 KiB and holds has cost the
// gateway the first grant of shard buffers (bodyHead between the data
// shards, plus parity) and nothing sized by the declaration.
func TestPutFromAllocationTrailsBytes(t *testing.T) {
	stores, puts, _ := countStores()
	gw := buildGateway(t, stores, nil)
	holding, release := make(chan struct{}), make(chan struct{})
	body := io.MultiReader(bytes.NewReader(make([]byte, 1<<10)), readFunc(func([]byte) (int, error) {
		close(holding)
		<-release
		return 0, io.EOF
	}))
	done := make(chan error, 1)
	var before, during runtime.MemStats
	runtime.ReadMemStats(&before)
	go func() {
		_, err := gw.PutObjectFrom(context.Background(), "trail", body, gw.cfg.MaxObjectBytes)
		done <- err
	}()
	<-holding
	runtime.ReadMemStats(&during)
	close(release)
	if grew := during.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
		t.Fatalf("1 KiB sent of %d declared: the gateway allocated %d bytes, want at most 2 MiB", gw.cfg.MaxObjectBytes, grew)
	}
	if err := <-done; !errors.Is(err, ErrBadRequest) || puts.Load() != 0 {
		t.Fatalf("upload that ended after 1 KiB: err %v, %d shard PUTs, want ErrBadRequest and none", err, puts.Load())
	}
}

// TestMemStoreSharesBuffers pins the ownership rule written on ShardStore:
// MemStore keeps the slice Put is given and Get returns the slice it
// holds, and because a shard is replaced or deleted, never edited, a
// reader still holding the old slice sees its bytes unchanged (the race
// detector would flag a store that wrote into it).
func TestMemStoreSharesBuffers(t *testing.T) {
	ctx := context.Background()
	ms := NewMemStore(0)
	data := payload(4096, 1)
	want := bytes.Clone(data)
	if err := ms.Put(ctx, "k", 0, data); err != nil {
		t.Fatal(err)
	}
	held, err := ms.Get(ctx, "k", 0)
	if err != nil || len(held) != len(data) || &held[0] != &data[0] {
		t.Fatalf("Get: err=%v, returned a %d-byte slice that is not the one Put was given", err, len(held))
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if !bytes.Equal(held, want) {
				t.Error("a held shard changed under its reader")
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := int64(2); i < 50; i++ {
			if err := ms.Put(ctx, "k", 0, payload(4096, i)); err != nil {
				t.Error(err)
			}
		}
		if err := ms.Delete(ctx, "k", 0); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if !bytes.Equal(held, want) {
		t.Fatal("the held shard changed after an overwrite and a delete")
	}
	if _, err := ms.Get(ctx, "k", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v, want ErrNotFound", err)
	}
}
