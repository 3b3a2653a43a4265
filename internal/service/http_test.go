package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"ecarray/internal/crush"
	"ecarray/internal/qos"
)

// simService boots a gateway over a fresh virtual cluster behind a real
// HTTP server, returning the client and the gateway.
func simService(t *testing.T, mutate func(*GatewayConfig)) (*GateClient, *Gateway) {
	t.Helper()
	gw := newSimGateway(t, mutate)
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	return NewGateClient(srv.URL), gw
}

// metricValue scrapes one plain counter/gauge value out of an exposition.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in exposition", name)
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

// TestServiceE2E is the acceptance flow over real HTTP: put an object,
// kill one OSD, read it back degraded and byte-identical, delete it, and
// watch the degraded-read and reconstruction counters move on /metrics.
// The whole flow is repeated on a second identically-seeded cluster and
// must behave identically (placement, counters, payloads).
func TestServiceE2E(t *testing.T) {
	type outcome struct {
		osds    []int
		degr    int64
		recon   int64
		payload []byte
	}
	run := func(t *testing.T) outcome {
		gc, _ := simService(t, nil)
		ctx := context.Background()
		data := payload(700<<10+321, 42)

		oi, err := gc.PutObject(ctx, "e2e/obj", data)
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		got, degraded, err := gc.GetObject(ctx, "e2e/obj")
		if err != nil || degraded || !bytes.Equal(got, data) {
			t.Fatalf("healthy get: err=%v degraded=%v match=%v", err, degraded, bytes.Equal(got, data))
		}

		// Kill the OSD holding data shard 0 through the admin endpoint.
		if err := gc.SetFault(ctx, oi.OSDs[0], FaultSpec{Partition: true}); err != nil {
			t.Fatalf("fail osd: %v", err)
		}
		got, degraded, err = gc.GetObject(ctx, "e2e/obj")
		if err != nil {
			t.Fatalf("degraded get: %v", err)
		}
		if !degraded {
			t.Fatal("get after OSD kill not marked degraded")
		}
		if !bytes.Equal(got, data) {
			t.Fatal("degraded get: payload mismatch")
		}

		metrics, err := gc.MetricsText(ctx)
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		degr := metricValue(t, metrics, "ecgate_degraded_reads_total")
		recon := metricValue(t, metrics, "ecgate_reconstructed_shards_total")
		if degr < 1 || recon < 1 {
			t.Fatalf("counters: degraded=%d reconstructed=%d, want >= 1", degr, recon)
		}

		st, err := gc.Status(ctx)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.DegradedReads != degr || st.Objects != 1 {
			t.Fatalf("status %+v inconsistent with metrics (degraded=%d)", st, degr)
		}

		if err := gc.DeleteObject(ctx, "e2e/obj"); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if _, _, err := gc.GetObject(ctx, "e2e/obj"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("get after delete: got %v, want ErrNotFound", err)
		}
		return outcome{osds: oi.OSDs, degr: degr, recon: recon, payload: got}
	}

	a := run(t)
	b := run(t)
	if fmt.Sprint(a.osds) != fmt.Sprint(b.osds) {
		t.Fatalf("placement not deterministic: %v vs %v", a.osds, b.osds)
	}
	if a.degr != b.degr || a.recon != b.recon {
		t.Fatalf("counters not deterministic: (%d,%d) vs (%d,%d)", a.degr, a.recon, b.degr, b.recon)
	}
	if !bytes.Equal(a.payload, b.payload) {
		t.Fatal("degraded payloads differ across identically-seeded runs")
	}
}

// countingReader counts the body bytes a handler consumed. Not being one
// of the reader types httptest.NewRequest recognises, it also leaves the
// request without a Content-Length, like a chunked upload.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// putBody sends body to a PUT route of h with the given Content-Length
// (-1: none, a chunked upload) and returns the status and how many body
// bytes the handler consumed.
func putBody(h http.Handler, path string, body []byte, declared int64) (code int, consumed int64) {
	cr := &countingReader{r: bytes.NewReader(body)}
	req := httptest.NewRequest(http.MethodPut, path, cr)
	req.ContentLength = declared
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, cr.n
}

// checkBodyLimits drives a PUT route with body limit limit through the ways
// a body can disagree with the limit or with its own Content-Length. Both
// daemons read bodies through readBody and must answer alike: a declared
// length over the limit is a 413 before a byte of it is read, a sender
// that hangs up short of its declared length is a 400, and a chunked body
// is accepted up to the limit and a 413 past it. Of the keys it uses only
// "fits" may be stored afterwards.
func checkBodyLimits(t *testing.T, h http.Handler, pathOf func(key string) string, limit int) {
	t.Helper()
	if code, consumed := putBody(h, pathOf("declared-over"), make([]byte, limit+1), int64(limit+1)); code != http.StatusRequestEntityTooLarge || consumed != 0 {
		t.Fatalf("declared length over the limit: status %d after consuming %d body bytes, want 413 after 0", code, consumed)
	}
	if code, _ := putBody(h, pathOf("hung-up"), []byte("half a sh"), 100); code != http.StatusBadRequest {
		t.Fatalf("body shorter than declared: status %d, want 400", code)
	}
	if code, _ := putBody(h, pathOf("fits"), make([]byte, limit), -1); code != http.StatusOK {
		t.Fatalf("chunked body at the limit: status %d, want 200", code)
	}
	if code, _ := putBody(h, pathOf("chunked-over"), make([]byte, limit+1), -1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked body over the limit: status %d, want 413", code)
	}
}

// TestHTTPErrorMapping drives each error path over real HTTP and checks
// status codes and Retry-After headers.
func TestHTTPErrorMapping(t *testing.T) {
	gc, gw := simService(t, func(cfg *GatewayConfig) {
		cfg.MaxObjectBytes = 1 << 20
	})
	ctx := context.Background()

	// 404: never-written key, and again after delete.
	if _, _, err := gc.GetObject(ctx, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: got %v, want ErrNotFound", err)
	}
	if _, err := gc.PutObject(ctx, "tmp", payload(4096, 1)); err != nil {
		t.Fatal(err)
	}
	if err := gc.DeleteObject(ctx, "tmp"); err != nil {
		t.Fatal(err)
	}
	if err := gc.DeleteObject(ctx, "tmp"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: got %v, want ErrNotFound", err)
	}

	// 413: object over the body limit.
	var se *StatusError
	_, err := gc.PutObject(ctx, "big", payload(1<<20+1, 2))
	if !errors.As(err, &se) || se.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized put: got %v, want 413", err)
	}
	checkBodyLimits(t, gw.Handler(), func(key string) string { return "/v1/objects/limits/" + key }, 1<<20)
	if _, _, err := gc.GetObject(ctx, "limits/fits"); err != nil {
		t.Fatalf("chunked put at the limit was not stored: %v", err)
	}
	if st := gw.Status(); st.Objects != 1 {
		t.Fatalf("%d objects after the refused bodies, want only limits/fits", st.Objects)
	}

	// 503 + Retry-After: 2 when fewer than k shards are reachable: fail
	// enough OSDs that fewer than k stay alive cluster-wide.
	if _, err := gc.PutObject(ctx, "stuck", payload(64<<10, 3)); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < len(gw.osds)-gw.cfg.K+1; id++ {
		if err := gw.FaultStore(id).SetFault(FaultSpec{Partition: true}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = gc.GetObject(ctx, "stuck")
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("get with <k reachable: got %v, want 503", err)
	}
	if se.RetryAfter != "2" {
		t.Fatalf("503 Retry-After = %q, want \"2\"", se.RetryAfter)
	}
	_, err = gc.PutObject(ctx, "newobj", payload(4096, 4))
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("put with <k reachable: got %v, want 503", err)
	}
	for id := 0; id < len(gw.osds); id++ {
		_ = gw.FaultStore(id).SetFault(FaultSpec{})
	}

	// 400: empty key (PUT /v1/objects/ matches the {key...} wildcard with
	// an empty value).
	_, err = gc.PutObject(ctx, "", payload(16, 5))
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("empty-key put: got %v, want 400", err)
	}
}

// TestHTTPOverload checks the 429 + Retry-After mapping end to end using
// a gateway whose single admission slot is held by a parked request.
func TestHTTPOverload(t *testing.T) {
	gw, unpark := parkedGateway(t)
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	gc := NewGateClient(srv.URL)
	// Observe the raw server mapping: client-side 429 retries would each
	// be rejected too, raising the pressure-derived Retry-After hint.
	gc.SetRetries(0)

	var se *StatusError
	_, err := gc.PutObject(context.Background(), "rejected", payload(4096, 2))
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded put: got %v, want 429", err)
	}
	if se.RetryAfter != "1" {
		t.Fatalf("429 Retry-After = %q, want \"1\" on an idle-edge rejection", se.RetryAfter)
	}
	unpark()
}

// TestOSDServerRoundTrip exercises the ecstored HTTP surface through
// OSDClient: put/get/stat/delete plus the 404 and 503 mappings.
func TestOSDServerRoundTrip(t *testing.T) {
	ms := NewMemStore(3)
	ms.SetHost("node3")
	fs := NewFaultStore(ms, 3, 1)
	srv := httptest.NewServer(NewOSDServer(3, fs, nil).Handler())
	t.Cleanup(srv.Close)
	oc := NewOSDClient(3, srv.URL)
	ctx := context.Background()

	shard := payload(32<<10, 9)
	if err := oc.Put(ctx, "a/b c#d", 2, shard); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, err := oc.Get(ctx, "a/b c#d", 2)
	if err != nil || !bytes.Equal(got, shard) {
		t.Fatalf("get: err=%v match=%v", err, bytes.Equal(got, shard))
	}
	st, err := oc.Stat(ctx)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if st.ID != 3 || st.Backend != "mem" || st.Host != "node3" || st.Shards != 1 {
		t.Fatalf("stat: %+v", st)
	}
	if _, err := oc.Get(ctx, "a/b c#d", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing shard: got %v, want ErrNotFound", err)
	}
	if err := oc.Delete(ctx, "a/b c#d", 2); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := oc.Get(ctx, "a/b c#d", 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: got %v, want ErrNotFound", err)
	}

	if err := fs.SetFault(FaultSpec{Partition: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := oc.Get(ctx, "x", 0); !errors.Is(err, ErrOSDDown) {
		t.Fatalf("failed OSD: got %v, want ErrOSDDown", err)
	}
}

// TestOSDServerPutBodyErrors: only a shard body over the limit is a 413; a
// sender that goes away mid-body (a gateway cancelling a hedged or
// timed-out send) is a 400, so ecstored_ops_total{code="413"} counts
// oversized shards and nothing else. Neither stores anything. The same
// holds whether or not the body declared its length (checkBodyLimits).
func TestOSDServerPutBodyErrors(t *testing.T) {
	ms := NewMemStore(0)
	osd := NewOSDServer(0, ms, nil)
	osd.maxShard = 1 << 10
	h := osd.Handler()
	put := func(body io.Reader) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/shards/k/0", body))
		return rec.Code
	}
	if code := put(bytes.NewReader(make([]byte, 1<<10+1))); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized shard: status %d, want 413", code)
	}
	aborted := io.MultiReader(strings.NewReader("half a sh"), iotest.ErrReader(io.ErrUnexpectedEOF))
	if code := put(aborted); code != http.StatusBadRequest {
		t.Fatalf("aborted body: status %d, want 400", code)
	}
	if code := put(bytes.NewReader(make([]byte, 1<<10))); code != http.StatusOK {
		t.Fatalf("shard at the limit: status %d, want 200", code)
	}
	checkBodyLimits(t, h, func(key string) string { return "/v1/shards/" + key + "/0" }, 1<<10)
	for code, want := range map[string]int64{"413": 3, "400": 2, "200": 2} {
		if n := osd.Metrics().Counter(`ecstored_ops_total{op="put",code="` + code + `"}`).Value(); n != want {
			t.Fatalf("ecstored_ops_total{op=put,code=%s} = %d, want %d", code, n, want)
		}
	}
	if keys := ms.Keys(); !reflect.DeepEqual(keys, []string{"fits#0", "k#0"}) {
		t.Fatalf("stored shards %v, want only the two at the limit", keys)
	}
}

// TestGatewayOverOSDDaemons wires a full mini service: six ecstored
// daemons behind OSDClients, a gateway placing across them, and a
// degraded read after one daemon is torn down.
func TestGatewayOverOSDDaemons(t *testing.T) {
	stores := make([]ShardStore, 6)
	servers := make([]*httptest.Server, 6)
	for i := range stores {
		ms := NewMemStore(i)
		ms.SetHost(fmt.Sprintf("node%d", i))
		servers[i] = httptest.NewServer(NewOSDServer(i, ms, nil).Handler())
		t.Cleanup(servers[i].Close)
		stores[i] = NewOSDClient(i, servers[i].URL)
	}
	placer, err := NewPlacer(crush.Uniform(6, 1), 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGatewayConfig()
	cfg.Backend = "osd"
	gw, err := NewGateway(cfg, stores, placer)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := payload(256<<10+77, 6)
	oi, err := gw.PutObject(ctx, "remote", data)
	if err != nil {
		t.Fatalf("put: %v", err)
	}

	// Tear down the daemon behind data shard 0: connection refused, which
	// the client maps to ErrOSDDown and the gateway reconstructs around.
	servers[oi.OSDs[0]].Close()
	got, info, err := gw.GetObject(ctx, "remote")
	if err != nil {
		t.Fatalf("degraded get: %v", err)
	}
	if !info.Degraded || !bytes.Equal(got, data) {
		t.Fatalf("degraded get: info=%+v match=%v", info, bytes.Equal(got, data))
	}
}

// TestMetricsExposition checks the Prometheus text rendering: counters,
// gauges, labelled histograms with cumulative buckets, deterministic order.
func TestMetricsExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total").Add(3)
	reg.Gauge("a_gauge").Set(-2)
	h := reg.Histogram(`req_seconds{op="get"}`)
	h.Observe(700 * 1000)  // 0.7ms
	h.Observe(70 * 100000) // 7ms
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	var prev string
	for _, want := range []string{
		"a_gauge -2\n",
		"b_total 3\n",
		`req_seconds_bucket{op="get",le="0.001"} 1` + "\n",
		`req_seconds_bucket{op="get",le="0.01"} 2` + "\n",
		`req_seconds_bucket{op="get",le="+Inf"} 2` + "\n",
		`req_seconds_count{op="get"} 2` + "\n",
	} {
		idx := strings.Index(text, want)
		if idx < 0 {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
		if prev != "" && idx < strings.Index(text, prev) {
			t.Fatalf("series out of order: %q before %q", want, prev)
		}
		prev = want
	}
	// Unlabelled histograms must not render empty label braces.
	reg2 := NewRegistry()
	reg2.Histogram("plain_seconds").Observe(1000)
	buf.Reset()
	_ = reg2.WritePrometheus(&buf)
	if strings.Contains(buf.String(), "{}") {
		t.Fatalf("empty label braces in exposition:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "plain_seconds_count 1\n") {
		t.Fatalf("plain histogram count missing:\n%s", buf.String())
	}
}

// tenantService boots a gateway over blockStores (every PUT parks until
// release is closed) with gold:3 and bronze:1 sharing 4 slots, so
// weighted-fair gives gold 3, bronze 1 and every unconfigured name
// together the default share of shareOf(4, 1, 4+1) = 1.
func tenantService(t *testing.T) (srv *httptest.Server, gw *Gateway, entered <-chan struct{}, release chan struct{}) {
	t.Helper()
	stores := make([]ShardStore, 6)
	enterCh := make(chan struct{}, 64)
	release = make(chan struct{})
	for i := range stores {
		stores[i] = &blockStore{MemStore: NewMemStore(i), release: release, enter: func() {
			select {
			case enterCh <- struct{}{}:
			default:
			}
		}}
	}
	gw = buildGateway(t, stores, func(cfg *GatewayConfig) {
		cfg.MaxInflight = 4
		cfg.Tenants = map[string]qos.TenantConfig{"gold": {Weight: 3}, "bronze": {Weight: 1}}
	})
	srv = httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	return srv, gw, enterCh, release
}

func tenantClient(url, tenant string) *GateClient {
	gc := NewGateClient(url)
	gc.SetRetries(0) // observe the raw 429
	gc.SetTenant(tenant)
	return gc
}

// TestTenantAdmissionHTTP: over HTTP, a tenant past its weighted-fair
// share gets 429 with a Retry-After while another tenant is still
// admitted, and the decision shows on the per-tenant series and in
// /v1/status.tenants.
func TestTenantAdmissionHTTP(t *testing.T) {
	srv, _, entered, release := tenantService(t)
	ctx := context.Background()
	bronze, gold := tenantClient(srv.URL, "bronze"), tenantClient(srv.URL, "gold")

	parked := make(chan error, 1)
	go func() {
		_, err := bronze.PutObject(ctx, "t/slow", payload(4096, 1))
		parked <- err
	}()
	<-entered // bronze's single slot is held

	var se *StatusError
	_, err := bronze.PutObject(ctx, "t/over", payload(4096, 2))
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || se.RetryAfter == "" {
		t.Fatalf("bronze over its share: got %v, want 429 with Retry-After", err)
	}
	if _, _, err := gold.GetObject(ctx, "t/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("gold beside a saturated bronze: got %v, want admitted (404)", err)
	}
	close(release)
	if err := <-parked; err != nil {
		t.Fatalf("parked bronze put: %v", err)
	}

	text, err := gold.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		`ecgate_tenant_admitted_total{tenant="bronze"}`:        1,
		`ecgate_tenant_rejected_total{tenant="bronze"}`:        1,
		`ecgate_tenant_inflight{tenant="bronze"}`:              0,
		`ecgate_tenant_request_seconds_count{tenant="bronze"}`: 2,
		`ecgate_tenant_admitted_total{tenant="gold"}`:          1,
		`ecgate_tenant_rejected_total{tenant="gold"}`:          0,
	} {
		if got := metricValue(t, text, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	st, err := gold.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b := st.Tenants["bronze"]
	if b.Admitted != 1 || b.Rejected != 1 || b.Requests != 2 || b.P99Seconds <= 0 {
		t.Fatalf("/v1/status bronze = %+v", b)
	}
	if len(st.Tenants) != 2 {
		t.Fatalf("/v1/status tenants = %v, want bronze and gold", st.Tenants)
	}
}

// TestTenantCardinalityBounded: X-Tenant is caller-controlled, so names
// outside GatewayConfig.Tenants must not mint state. A thousand distinct
// values leave the registry and /v1/status.tenants where two requests
// left them; together they hold ONE default share, not one each; and a
// configured tenant's share is untouched by the flood.
func TestTenantCardinalityBounded(t *testing.T) {
	srv, gw, entered, release := tenantService(t)
	ctx := context.Background()
	series := func() int {
		gw.reg.mu.Lock()
		defer gw.reg.mu.Unlock()
		return len(gw.reg.series)
	}
	// First sight of the two identities in play resolves their bundles
	// and the one requests_total series this flood produces.
	for _, name := range []string{"gold", "stranger"} {
		if _, _, err := tenantClient(srv.URL, name).GetObject(ctx, "c/missing"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: %v", name, err)
		}
	}
	before := series()
	for i := 0; i < 1000; i++ {
		if _, _, err := tenantClient(srv.URL, fmt.Sprintf("t-%d", i)).GetObject(ctx, "c/missing"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("tenant t-%d: %v", i, err)
		}
	}
	if after := series(); after != before {
		t.Fatalf("1000 distinct X-Tenant values grew the registry from %d to %d series", before, after)
	}
	st := gw.Status()
	if len(st.Tenants) != 2 || st.Tenants[otherTenant].Admitted != 1001 || st.Tenants["gold"].Admitted != 1 {
		t.Fatalf("/v1/status tenants after the flood: %v", st.Tenants)
	}

	// Two different unconfigured names contend for the same single slot.
	parked := make(chan error, 1)
	go func() {
		_, err := tenantClient(srv.URL, "alice").PutObject(ctx, "c/slow", payload(4096, 3))
		parked <- err
	}()
	<-entered
	var se *StatusError
	if _, err := tenantClient(srv.URL, "bob").PutObject(ctx, "c/over", payload(4096, 4)); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("second unconfigured tenant: got %v, want 429 (shared default share)", err)
	}
	if _, _, err := tenantClient(srv.URL, "gold").GetObject(ctx, "c/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("gold during the flood: got %v, want admitted (404)", err)
	}
	close(release)
	if err := <-parked; err != nil {
		t.Fatalf("parked put: %v", err)
	}
}

// shapingPolicy admits everything after a fixed throttle delay and counts
// the slots it has out.
type shapingPolicy struct {
	delay time.Duration
	held  atomic.Int64
}

func (p *shapingPolicy) Name() string { return "shaping" }
func (p *shapingPolicy) Admit(qos.Request) qos.Decision {
	p.held.Add(1)
	return qos.Decision{Admit: true, Delay: p.delay}
}
func (p *shapingPolicy) Release(qos.Request) { p.held.Add(-1) }

// TestAdmissionCancelDuringThrottle: a request cancelled while it serves
// a shaping delay gives its slot back at once instead of holding it for
// the rest of the delay — at both front doors, which share admitRequest.
func TestAdmissionCancelDuringThrottle(t *testing.T) {
	pol := &shapingPolicy{delay: time.Minute}
	gw := buildGateway(t, memStores(6), func(cfg *GatewayConfig) { cfg.Admission = pol })
	reached := false
	osd := AdmissionMiddleware(pol, http.HandlerFunc(func(http.ResponseWriter, *http.Request) { reached = true }))
	doors := map[string]func(ctx context.Context){
		"gateway": func(ctx context.Context) { _, _, _ = gw.GetObject(ctx, "x") },
		"ecstored middleware": func(ctx context.Context) {
			osd.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/stat", nil).WithContext(ctx))
		},
	}
	for name, serve := range doors {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			serve(ctx)
			close(done)
		}()
		for pol.held.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: cancelled request still serving its throttle delay", name)
		}
		if n := pol.held.Load(); n != 0 {
			t.Fatalf("%s: %d slots still held after the cancelled request returned", name, n)
		}
	}
	if reached {
		t.Fatal("cancelled request reached the handler")
	}
}
