package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ecarray/internal/crush"
	"ecarray/internal/rs"
)

// buildGateway wires a gateway over the given 6 stores with a uniform
// 3×2 CRUSH map — the fixture for resilience tests that need custom
// (flaky, slow, counting) shard stores.
func buildGateway(t testing.TB, stores []ShardStore, mutate func(*GatewayConfig)) *Gateway {
	t.Helper()
	placer, err := NewPlacer(crush.Uniform(3, 2), 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGatewayConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	gw, err := NewGateway(cfg, stores, placer)
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

func memStores(n int) []ShardStore {
	stores := make([]ShardStore, n)
	for i := range stores {
		ms := NewMemStore(i)
		ms.SetHost(fmt.Sprintf("node%d", i))
		stores[i] = ms
	}
	return stores
}

// fastRetries shrinks the retry/hedge timings so tests stay quick.
func fastRetries(cfg *GatewayConfig) {
	cfg.RetryBase = time.Millisecond
	cfg.RetryMax = 4 * time.Millisecond
}

// TestBreakerTransitions walks the closed → open → half-open → closed and
// half-open → open paths with explicit clocks.
func TestBreakerTransitions(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := NewBreaker(3, 10*time.Second)

	if !b.Allow(t0) || b.State() != BreakerClosed {
		t.Fatal("fresh breaker must be closed and allowing")
	}
	b.Record(false, t0)
	b.Record(false, t0)
	if b.State() != BreakerClosed {
		t.Fatalf("2 of 3 failures: state %v, want closed", b.State())
	}
	b.Record(false, t0)
	if b.State() != BreakerOpen {
		t.Fatalf("3rd consecutive failure: state %v, want open", b.State())
	}
	if b.Allow(t0.Add(5 * time.Second)) {
		t.Fatal("open breaker allowed an op before the cooldown")
	}

	// Cooldown elapsed: exactly one probe goes through.
	probeAt := t0.Add(11 * time.Second)
	if !b.Allow(probeAt) {
		t.Fatal("cooldown elapsed: probe must be allowed")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	if b.Allow(probeAt) {
		t.Fatal("second op allowed while the probe is in flight")
	}

	// Failed probe re-opens.
	b.Record(false, probeAt)
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe: state %v, want open", b.State())
	}
	if b.Allow(probeAt.Add(5 * time.Second)) {
		t.Fatal("failed probe must re-arm the cooldown")
	}

	// Successful probe closes and resets.
	probe2 := probeAt.Add(11 * time.Second)
	if !b.Allow(probe2) {
		t.Fatal("second cooldown elapsed: probe must be allowed")
	}
	b.Record(true, probe2)
	if b.State() != BreakerClosed {
		t.Fatalf("successful probe: state %v, want closed", b.State())
	}
	if b.FailureRate() != 0 {
		t.Fatalf("close must reset the EWMA, got %v", b.FailureRate())
	}
	// A single new failure must not instantly re-trip.
	b.Record(false, probe2)
	if b.State() != BreakerClosed {
		t.Fatal("one failure after close re-tripped the breaker")
	}
}

// TestBreakerEWMATrip checks the gray-failure criterion: an OSD failing
// most-but-not-all ops trips via the decayed failure rate even though
// occasional successes keep resetting the consecutive counter.
func TestBreakerEWMATrip(t *testing.T) {
	t0 := time.Unix(2000, 0)
	b := NewBreaker(100, time.Second) // consecutive criterion out of reach
	// F S F F F → EWMA 1, .70, .79, .853, .897; min-samples gate holds the
	// trip until sample 5.
	for i, ok := range []bool{false, true, false, false} {
		b.Record(ok, t0)
		if b.State() != BreakerClosed {
			t.Fatalf("sample %d: tripped early (ewma %v)", i+1, b.FailureRate())
		}
	}
	b.Record(false, t0)
	if b.State() != BreakerOpen {
		t.Fatalf("sustained failure rate %v did not trip", b.FailureRate())
	}
}

// TestBreakerDisabled: threshold 0 never blocks and never trips.
func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(0, time.Second)
	t0 := time.Unix(3000, 0)
	for i := 0; i < 10; i++ {
		b.Record(false, t0)
	}
	if !b.Allow(t0) || b.State() != BreakerClosed {
		t.Fatal("disabled breaker must stay closed")
	}
}

// flakyStore fails the next fail[op] calls of each op ("put", "get",
// "delete") with a transient error, then passes through; calls[op] counts
// the physical attempts that reached it.
type flakyStore struct {
	*MemStore
	mu    sync.Mutex
	fail  map[string]int
	calls map[string]int
}

var errBlip = errors.New("transient blip")

func (s *flakyStore) blip(op string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls[op]++
	if s.fail[op] > 0 {
		s.fail[op]--
		return errBlip
	}
	return nil
}

func (s *flakyStore) Put(ctx context.Context, key string, shard int, data []byte) error {
	if err := s.blip("put"); err != nil {
		return err
	}
	return s.MemStore.Put(ctx, key, shard, data)
}

func (s *flakyStore) Get(ctx context.Context, key string, shard int) ([]byte, error) {
	if err := s.blip("get"); err != nil {
		return nil, err
	}
	return s.MemStore.Get(ctx, key, shard)
}

func (s *flakyStore) Delete(ctx context.Context, key string, shard int) error {
	if err := s.blip("delete"); err != nil {
		return err
	}
	return s.MemStore.Delete(ctx, key, shard)
}

// retryFixture is a gateway over six flakyStores whose jitter hook records
// every backoff the shard loop draws, in draw order: base is the capped
// exponential term, wait the base plus the seeded jitter.
type retryFixture struct {
	gw    *Gateway
	flaky []*flakyStore
	mu    sync.Mutex
	base  []time.Duration
	wait  []time.Duration
}

func newRetryFixture(t *testing.T, mutate func(*GatewayConfig)) *retryFixture {
	f := &retryFixture{flaky: make([]*flakyStore, 6)}
	stores := make([]ShardStore, 6)
	for i := range stores {
		f.flaky[i] = &flakyStore{MemStore: NewMemStore(i), fail: map[string]int{}, calls: map[string]int{}}
		stores[i] = f.flaky[i]
	}
	f.gw = buildGateway(t, stores, func(cfg *GatewayConfig) {
		fastRetries(cfg)
		cfg.HedgeDelay = 0 // isolate the retry path
		if mutate != nil {
			mutate(cfg)
		}
	})
	seeded := f.gw.retry.Jitter
	f.gw.retry.Jitter = func(d time.Duration) time.Duration {
		f.mu.Lock()
		defer f.mu.Unlock()
		j := seeded(d)
		f.base = append(f.base, d)
		f.wait = append(f.wait, d+j)
		return j
	}
	return f
}

// arm makes every store fail its next n calls of op and forgets the
// attempts counted so far.
func (f *retryFixture) arm(op string, n int) {
	for _, s := range f.flaky {
		s.mu.Lock()
		s.fail[op] = n
		s.calls = map[string]int{}
		s.mu.Unlock()
	}
}

// attempts returns how many stores saw exactly n physical attempts of op.
func (f *retryFixture) attempts(op string, n int) int {
	stores := 0
	for _, s := range f.flaky {
		s.mu.Lock()
		if s.calls[op] == n {
			stores++
		}
		s.mu.Unlock()
	}
	return stores
}

func (f *retryFixture) retries(op string) int64 {
	return f.gw.Metrics().Counter(fmt.Sprintf("ecgate_shard_retries_total{op=%q}", op)).Value()
}

// TestRetryThenSucceed: every store fails its first attempt of one op —
// PUT, GET or DELETE in turn, each on a fresh gateway with the same seed.
// The bounded retry recovers each shard, so the op is clean (a GET is not
// degraded) with exactly one retry and two attempts per shard touched, and
// because all three ops run the one loop they draw the same backoffs: the
// first draws of the seeded jitter over the 1 ms first-retry base.
func TestRetryThenSucceed(t *testing.T) {
	ctx := context.Background()
	data := payload(256<<10, 21)
	for _, op := range []string{"put", "get", "delete"} {
		f := newRetryFixture(t, nil)
		gw := f.gw
		shards := gw.cfg.K + gw.cfg.M
		if op == "put" {
			f.arm("put", 1)
		}
		if _, err := gw.PutObject(ctx, "flaky/obj", data); err != nil {
			t.Fatalf("%s: put: %v", op, err)
		}
		switch op {
		case "get":
			shards = gw.cfg.K // a clean read touches the data shards only
			f.arm("get", 1)
			got, info, err := gw.GetObject(ctx, "flaky/obj")
			if err != nil {
				t.Fatalf("get with transient blips: %v", err)
			}
			if info.Degraded {
				t.Fatalf("retries should have recovered every shard, got %+v", info)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("payload mismatch")
			}
		case "delete":
			f.arm("delete", 1)
			if err := gw.DeleteObject(ctx, "flaky/obj"); err != nil {
				t.Fatalf("delete with transient blips: %v", err)
			}
			for i, s := range f.flaky {
				if keys := s.Keys(); len(keys) != 0 {
					t.Fatalf("store %d still holds %v after the retried delete", i, keys)
				}
			}
		}
		if n := f.retries(op); n != int64(shards) {
			t.Fatalf("%s: retries = %d, want %d (one per shard)", op, n, shards)
		}
		if n := f.attempts(op, 2); n != shards {
			t.Fatalf("%s: %d stores saw exactly 2 attempts, want %d", op, n, shards)
		}
		rng := rand.New(rand.NewSource(gw.cfg.Seed))
		for i, got := range f.wait {
			want := time.Millisecond + time.Duration(rng.Int63n(int64(time.Millisecond/2)+1))
			if got != want {
				t.Fatalf("%s: backoff %d = %v, want %v (seed %d)", op, i, got, want, gw.cfg.Seed)
			}
		}
		if len(f.wait) != shards {
			t.Fatalf("%s: %d backoffs drawn, want %d", op, len(f.wait), shards)
		}
	}
}

// TestRetryExhausted: persistently failing stores exhaust the retry
// budget of a PUT, a GET and a DELETE alike: 1+Retries attempts and the
// 1 ms, 2 ms backoff bases per shard. The write and the read run out of
// shards and surface ErrInsufficientShards; the delete is best effort.
func TestRetryExhausted(t *testing.T) {
	ctx := context.Background()
	for _, op := range []string{"put", "get", "delete"} {
		f := newRetryFixture(t, func(cfg *GatewayConfig) {
			cfg.BreakerThreshold = 0 // isolate retry exhaustion from the breaker
		})
		gw := f.gw
		if op == "put" {
			f.arm("put", 1<<20)
		}
		_, err := gw.PutObject(ctx, "doomed", payload(64<<10, 22))
		if op != "put" && err != nil {
			t.Fatalf("%s: put: %v", op, err)
		}
		switch op {
		case "put":
			if !errors.Is(err, ErrInsufficientShards) {
				t.Fatalf("exhausted put retries: got %v, want ErrInsufficientShards", err)
			}
		case "get":
			f.arm("get", 1<<20)
			if _, _, err := gw.GetObject(ctx, "doomed"); !errors.Is(err, ErrInsufficientShards) {
				t.Fatalf("exhausted retries: got %v, want ErrInsufficientShards", err)
			}
		case "delete":
			f.arm("delete", 1<<20)
			if err := gw.DeleteObject(ctx, "doomed"); err != nil {
				t.Fatalf("best-effort delete: %v", err)
			}
		}
		// Every shard op burned its full budget: (k data + m parity) × Retries.
		shards := gw.cfg.K + gw.cfg.M
		if n, want := f.retries(op), int64(shards*gw.cfg.Retries); n != want {
			t.Fatalf("%s: retries = %d, want %d", op, n, want)
		}
		if n := f.attempts(op, 1+gw.cfg.Retries); n != shards {
			t.Fatalf("%s: %d stores saw %d attempts, want %d", op, n, 1+gw.cfg.Retries, shards)
		}
		bases := map[time.Duration]int{}
		for _, d := range f.base {
			bases[d]++
		}
		if len(bases) != 2 || bases[time.Millisecond] != shards || bases[2*time.Millisecond] != shards {
			t.Fatalf("%s: backoff bases %v, want %d each of 1ms and 2ms", op, bases, shards)
		}
	}
}

// stallOnceStore hangs each shard's first Get until the caller's context
// is cancelled; later attempts pass through — the hedged-read fixture.
type stallOnceStore struct {
	*MemStore
	mu      sync.Mutex
	stalled map[string]bool
}

func (s *stallOnceStore) Get(ctx context.Context, key string, shard int) ([]byte, error) {
	id := fmt.Sprintf("%s/%d", key, shard)
	s.mu.Lock()
	first := !s.stalled[id]
	s.stalled[id] = true
	s.mu.Unlock()
	if first {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return s.MemStore.Get(ctx, key, shard)
}

// TestHedgedReadWin: first attempts hang, the hedge launched after
// HedgeDelay wins every shard, the read is clean, and — truthful scoring —
// the cancelled losers are not recorded against health or breakers.
func TestHedgedReadWin(t *testing.T) {
	stores := make([]ShardStore, 6)
	for i := range stores {
		stores[i] = &stallOnceStore{MemStore: NewMemStore(i), stalled: map[string]bool{}}
	}
	gw := buildGateway(t, stores, func(cfg *GatewayConfig) {
		fastRetries(cfg)
		cfg.HedgeDelay = 10 * time.Millisecond
	})
	ctx := context.Background()
	data := payload(128<<10, 23)
	if _, err := gw.PutObject(ctx, "stuck/obj", data); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, info, err := gw.GetObject(ctx, "stuck/obj")
	if err != nil {
		t.Fatalf("get with stalled first attempts: %v", err)
	}
	if info.Degraded {
		t.Fatalf("hedges should have served every shard, got %+v", info)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch")
	}
	hedged := gw.Metrics().Counter("ecgate_hedged_reads_total").Value()
	wins := gw.Metrics().Counter("ecgate_hedge_wins_total").Value()
	if hedged != int64(gw.cfg.K) || wins != int64(gw.cfg.K) {
		t.Fatalf("hedged=%d wins=%d, want %d each", hedged, wins, gw.cfg.K)
	}
	// The losers were cancelled, not failed: no breaker or health damage.
	for osd := 0; osd < 6; osd++ {
		if st := gw.Breaker(osd).State(); st != BreakerClosed {
			t.Fatalf("osd %d breaker %v after hedge wins, want closed", osd, st)
		}
		if r := gw.Breaker(osd).FailureRate(); r != 0 {
			t.Fatalf("osd %d failure rate %v after hedge wins, want 0", osd, r)
		}
	}
	st := gw.Status()
	if st.HedgedReads != hedged {
		t.Fatalf("status hedged_reads %d != counter %d", st.HedgedReads, hedged)
	}
}

// TestBreakerRoutesAroundPartition: a partitioned OSD trips its breaker,
// after which the gateway stops contacting it entirely (the injection
// counter freezes) while reads keep succeeding byte-identically; clearing
// the fault and waiting out the cooldown closes the breaker via a probe.
func TestBreakerRoutesAroundPartition(t *testing.T) {
	gw := buildGateway(t, memStores(6), func(cfg *GatewayConfig) {
		fastRetries(cfg)
		cfg.BreakerCooldown = 50 * time.Millisecond
	})
	ctx := context.Background()
	payloads := map[string][]byte{}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("part/obj-%d", i)
		payloads[key] = payload(64<<10+i, int64(30+i))
		if _, err := gw.PutObject(ctx, key, payloads[key]); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}

	if err := gw.FaultStore(0).SetFault(FaultSpec{Partition: true}); err != nil {
		t.Fatal(err)
	}
	readAll := func(phase string) {
		t.Helper()
		for key, want := range payloads {
			got, _, err := gw.GetObject(ctx, key)
			if err != nil {
				t.Fatalf("%s: get %s: %v", phase, key, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: get %s: payload mismatch", phase, key)
			}
		}
	}
	readAll("partitioned")
	if st := gw.Breaker(0).State(); st != BreakerOpen {
		t.Fatalf("breaker after partitioned reads: %v, want open", st)
	}
	if n := gw.Metrics().Counter("ecgate_breaker_trips_total").Value(); n < 1 {
		t.Fatalf("breaker_trips_total = %d, want >= 1", n)
	}

	// Open breaker: the OSD is no longer contacted at all.
	before := gw.FaultStore(0).FaultStats().Partitioned
	readAll("breaker-open")
	if after := gw.FaultStore(0).FaultStats().Partitioned; after != before {
		t.Fatalf("open breaker still sent %d ops to the partitioned OSD", after-before)
	}
	if n := gw.Metrics().Counter("ecgate_breaker_skipped_total").Value(); n < 1 {
		t.Fatalf("breaker_skipped_total = %d, want >= 1", n)
	}
	if st := gw.Status(); st.BreakersOpen != 1 {
		t.Fatalf("status breakers_open = %d, want 1", st.BreakersOpen)
	}
	osds := gw.OSDStatuses(ctx)
	if osds[0].Breaker != "open" {
		t.Fatalf("/v1/osds breaker = %q, want open", osds[0].Breaker)
	}

	// Heal: clear the fault, wait out the cooldown; the next read probes
	// the OSD and closes the breaker.
	if err := gw.FaultStore(0).SetFault(FaultSpec{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	readAll("healed")
	if st := gw.Breaker(0).State(); st != BreakerClosed {
		t.Fatalf("breaker after heal: %v, want closed", st)
	}
}

// TestFaultStoreDeterminism: identical seeds and op sequences draw
// identical injected outcomes.
func TestFaultStoreDeterminism(t *testing.T) {
	run := func() ([]bool, FaultStats) {
		fs := NewFaultStore(NewMemStore(0), 0, 99)
		if err := fs.SetFault(FaultSpec{ErrorProb: 0.3}); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		_ = fs.Put(ctx, "k", 0, []byte("v")) // may itself be injected
		outcomes := make([]bool, 64)
		for i := range outcomes {
			_, err := fs.Get(ctx, "k", 0)
			outcomes[i] = err != nil
		}
		return outcomes, fs.FaultStats()
	}
	a, astats := run()
	b, bstats := run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("outcome sequences differ:\n%v\n%v", a, b)
	}
	if astats != bstats {
		t.Fatalf("stats differ: %+v vs %+v", astats, bstats)
	}
	injected := false
	for _, f := range a {
		if f {
			injected = true
		}
	}
	if !injected {
		t.Fatal("ErrorProb 0.3 over 64 ops injected nothing")
	}
}

// TestFaultSpecValidation rejects out-of-range specs at the API boundary.
func TestFaultSpecValidation(t *testing.T) {
	fs := NewFaultStore(NewMemStore(0), 0, 1)
	for _, bad := range []FaultSpec{
		{ErrorProb: 1.5}, {ErrorProb: -0.1}, {StuckProb: 2}, {LatencyMult: -1}, {DelayMs: -5},
	} {
		if err := fs.SetFault(bad); err == nil {
			t.Fatalf("spec %+v accepted, want error", bad)
		}
	}
	if fs.Fault().Active() {
		t.Fatal("rejected specs must not replace the live spec")
	}
}

// TestWALReplayRestart is the crash-safety acceptance test: a gateway is
// abandoned (no Close — the moral equivalent of SIGKILL, since every
// append is fsynced) and a fresh gateway over the same MetaDir and stores
// must serve every surviving object byte-identically, keep deleted
// objects deleted, and resume the generation counter above the replayed
// maximum.
func TestWALReplayRestart(t *testing.T) {
	dir := t.TempDir()
	stores := memStores(6)
	mk := func() *Gateway {
		return buildGateway(t, stores, func(cfg *GatewayConfig) {
			cfg.MetaDir = dir
		})
	}
	ctx := context.Background()
	gw1 := mk()
	a := payload(200<<10+7, 41)
	b1 := payload(96<<10, 42)
	b2 := payload(128<<10+3, 43) // overwrite
	c := payload(32<<10, 44)
	for _, put := range []struct {
		key  string
		data []byte
	}{{"wal/a", a}, {"wal/b", b1}, {"wal/b", b2}, {"wal/c", c}} {
		if _, err := gw1.PutObject(ctx, put.key, put.data); err != nil {
			t.Fatalf("put %s: %v", put.key, err)
		}
	}
	if err := gw1.DeleteObject(ctx, "wal/c"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	oldGen := genOf(gw1.objects["wal/b"].skey)
	// gw1 is abandoned here: no Close, no shutdown.

	gw2 := mk()
	for key, want := range map[string][]byte{"wal/a": a, "wal/b": b2} {
		got, info, err := gw2.GetObject(ctx, key)
		if err != nil {
			t.Fatalf("restarted get %s: %v", key, err)
		}
		if info.Degraded {
			t.Fatalf("restarted get %s unexpectedly degraded", key)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restarted get %s: payload mismatch", key)
		}
	}
	if _, _, err := gw2.GetObject(ctx, "wal/c"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted object resurrected: %v", err)
	}
	st := gw2.Status()
	if st.Objects != 2 || st.BytesStored != int64(len(a)+len(b2)) {
		t.Fatalf("restarted status %+v, want 2 objects / %d bytes", st, len(a)+len(b2))
	}
	// New PUTs must not collide with replayed generations: a fresh write
	// under an old key gets a strictly newer generation stamp.
	if _, err := gw2.PutObject(ctx, "wal/b", payload(4096, 45)); err != nil {
		t.Fatalf("put after restart: %v", err)
	}
	if g := genOf(gw2.objects["wal/b"].skey); g <= oldGen {
		t.Fatalf("generation did not resume: %d <= %d", g, oldGen)
	}
	if err := gw2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestWALCompaction: the snapshot bounds the WAL — after many updates the
// live log stays under the threshold and a restart still recovers the
// latest state.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	stores := memStores(6)
	mk := func() *Gateway {
		return buildGateway(t, stores, func(cfg *GatewayConfig) {
			cfg.MetaDir = dir
			cfg.MetaCompactThreshold = 8
		})
	}
	ctx := context.Background()
	gw := mk()
	var last []byte
	for i := 0; i < 40; i++ {
		last = payload(8<<10, int64(50+i))
		key := fmt.Sprintf("cpt/obj-%d", i%4) // heavy overwrite churn
		if _, err := gw.PutObject(ctx, key, last); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if gw.wal.records >= 8 {
		t.Fatalf("wal holds %d records after compaction, want < 8", gw.wal.records)
	}
	if n := gw.Metrics().Counter("ecgate_wal_compactions_total").Value(); n < 4 {
		t.Fatalf("wal_compactions_total = %d, want >= 4", n)
	}
	if _, err := os.Stat(filepath.Join(dir, snapFileName)); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	// The live WAL is bounded: at most threshold records of a few hundred
	// bytes each, nowhere near 40 full records.
	if sz := gw.wal.size(); sz < 0 || sz > 8*512 {
		t.Fatalf("wal size %d bytes, want bounded under %d", sz, 8*512)
	}

	gw2 := mk()
	got, _, err := gw2.GetObject(ctx, "cpt/obj-3")
	if err != nil {
		t.Fatalf("get after compacted restart: %v", err)
	}
	if !bytes.Equal(got, last) {
		t.Fatal("compacted restart lost the latest overwrite")
	}
}

// TestWALTornTail: a crash mid-append leaves a torn final line, which
// replay must tolerate; corruption earlier in the file must not pass.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	rec := func(key string) string {
		b, _ := json.Marshal(walRecord{Op: "put", Key: key, Size: 1, SKey: key + "@7", OSDs: []int{0}, OK: []bool{true}})
		return string(b) + "\n"
	}
	walPath := filepath.Join(dir, walFileName)
	if err := os.WriteFile(walPath, []byte(rec("a")+rec("b")+`{"op":"put","key":"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	w, objects, maxGen, err := openMetaWAL(dir, 0, 64<<10)
	if err != nil {
		t.Fatalf("torn tail must replay: %v", err)
	}
	defer w.Close()
	if len(objects) != 2 || objects["a"] == nil || objects["b"] == nil {
		t.Fatalf("replayed %d objects, want a and b", len(objects))
	}
	if maxGen != 7 {
		t.Fatalf("maxGen = %d, want 7", maxGen)
	}

	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, walFileName),
		[]byte(rec("a")+"{corrupt}\n"+rec("b")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openMetaWAL(dir2, 0, 64<<10); err == nil {
		t.Fatal("mid-file corruption must be an error, not silently skipped")
	}
}

// TestChaosAcceptance is the ISSUE acceptance run: 10% injected shard
// errors, 5× latency and occasional stalls on two OSDs; 200 PUT/GET
// cycles must all succeed byte-identically (zero client-visible errors),
// with the retry and hedge machinery demonstrably doing the work.
func TestChaosAcceptance(t *testing.T) {
	gw := buildGateway(t, memStores(6), func(cfg *GatewayConfig) {
		fastRetries(cfg)
		cfg.HedgeDelay = 20 * time.Millisecond
		cfg.ShardTimeout = time.Second
		cfg.BreakerCooldown = 50 * time.Millisecond
	})
	ctx := context.Background()
	flaky := FaultSpec{ErrorProb: 0.1, LatencyMult: 5, StuckProb: 0.05, StuckMs: 50}
	for _, osd := range []int{0, 1} {
		if err := gw.FaultStore(osd).SetFault(flaky); err != nil {
			t.Fatal(err)
		}
	}
	payloads := map[string][]byte{}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("chaos/obj-%d", i)
		payloads[key] = payload(4<<10+i*13, int64(100+i))
		if _, err := gw.PutObject(ctx, key, payloads[key]); err != nil {
			t.Fatalf("cycle %d put: %v", i, err)
		}
		got, _, err := gw.GetObject(ctx, key)
		if err != nil {
			t.Fatalf("cycle %d get: %v", i, err)
		}
		if !bytes.Equal(got, payloads[key]) {
			t.Fatalf("cycle %d: payload mismatch", i)
		}
	}
	var retries int64
	for _, op := range []string{"get", "put", "delete"} {
		retries += gw.Metrics().Counter(fmt.Sprintf("ecgate_shard_retries_total{op=%q}", op)).Value()
	}
	if retries == 0 {
		t.Fatal("10% injected errors over 200 cycles produced zero retries")
	}
	if gw.Metrics().Counter("ecgate_hedged_reads_total").Value() == 0 {
		t.Fatal("injected stalls produced zero hedged reads")
	}
	stats := gw.FaultStore(0).FaultStats()
	if stats.Errors == 0 || stats.Stalls == 0 {
		t.Fatalf("fault stats %+v: injection did not actually run", stats)
	}

	// Partition phase: breaker metrics must move, reads must hold.
	if err := gw.FaultStore(0).SetFault(FaultSpec{Partition: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("chaos/obj-%d", i)
		got, _, err := gw.GetObject(ctx, key)
		if err != nil {
			t.Fatalf("partitioned get %s: %v", key, err)
		}
		if !bytes.Equal(got, payloads[key]) {
			t.Fatalf("partitioned get %s: payload mismatch", key)
		}
	}
	if gw.Metrics().Counter("ecgate_breaker_trips_total").Value() == 0 {
		t.Fatal("partition did not trip a breaker")
	}
}

// TestChaosNoLeak is the flip side of the acceptance run: with injection
// off, none of the resilience machinery may fire — every new counter is
// exactly zero, so the hot path is provably untouched by default.
func TestChaosNoLeak(t *testing.T) {
	gw := buildGateway(t, memStores(6), nil) // stock defaults, no faults
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("clean/obj-%d", i)
		data := payload(16<<10+i, int64(200+i))
		if _, err := gw.PutObject(ctx, key, data); err != nil {
			t.Fatalf("put: %v", err)
		}
		got, info, err := gw.GetObject(ctx, key)
		if err != nil || info.Degraded || !bytes.Equal(got, data) {
			t.Fatalf("get: err=%v info=%+v", err, info)
		}
	}
	for _, name := range []string{
		`ecgate_shard_retries_total{op="get"}`,
		`ecgate_shard_retries_total{op="put"}`,
		`ecgate_shard_retries_total{op="delete"}`,
		"ecgate_hedged_reads_total",
		"ecgate_hedge_wins_total",
		"ecgate_breaker_trips_total",
		"ecgate_breaker_skipped_total",
	} {
		if n := gw.Metrics().Counter(name).Value(); n != 0 {
			t.Fatalf("%s = %d on the healthy path, want exactly 0", name, n)
		}
	}
	st := gw.Status()
	if st.Retries != 0 || st.HedgedReads != 0 || st.BreakersOpen != 0 {
		t.Fatalf("status leaked resilience activity: %+v", st)
	}
}

// TestRequestIDPropagation: the ID a client sends with an object request
// must arrive on every shard request at every OSD daemon, and a request
// without one gets a generated ID that propagates just the same.
func TestRequestIDPropagation(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	stores := make([]ShardStore, 6)
	for i := range stores {
		inner := NewOSDServer(i, NewMemStore(i), nil).Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen[r.Header.Get(RequestIDHeader)]++
			mu.Unlock()
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		stores[i] = NewOSDClient(i, srv.URL)
	}
	placer, err := NewPlacer(crush.Uniform(6, 1), 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGatewayConfig()
	gw, err := NewGateway(cfg, stores, placer)
	if err != nil {
		t.Fatal(err)
	}
	gsrv := httptest.NewServer(gw.Handler())
	t.Cleanup(gsrv.Close)
	gc := NewGateClient(gsrv.URL)

	// Client-supplied ID: forwarded verbatim to all k+m shard PUTs.
	ctx := WithRequestID(context.Background(), "rid-e2e-42")
	if _, err := gc.PutObject(ctx, "rid/obj", payload(64<<10, 61)); err != nil {
		t.Fatalf("put: %v", err)
	}
	mu.Lock()
	n := seen["rid-e2e-42"]
	mu.Unlock()
	if n != cfg.K+cfg.M {
		t.Fatalf("client request ID reached %d shard requests, want %d", n, cfg.K+cfg.M)
	}

	// No client ID: the gateway generates one; no shard request may go out
	// unlabelled.
	mu.Lock()
	for k := range seen {
		delete(seen, k)
	}
	mu.Unlock()
	if _, _, err := gc.GetObject(context.Background(), "rid/obj"); err != nil {
		t.Fatalf("get: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen[""] != 0 {
		t.Fatalf("%d shard requests carried no request ID", seen[""])
	}
	if len(seen) != 1 {
		t.Fatalf("generated ID not uniform across shard requests: %v", seen)
	}
}

// TestGateClientRetry: the client transparently retries 429/503 honoring
// Retry-After, succeeds once the server recovers, and surfaces the final
// status once the budget is exhausted.
func TestGateClientRetry(t *testing.T) {
	var mu sync.Mutex
	fails := 2
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		reject := fails > 0
		if reject {
			fails--
		}
		mu.Unlock()
		if reject {
			w.Header().Set("Retry-After", "0")
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "overloaded"})
			return
		}
		writeJSON(w, http.StatusOK, ObjectInfo{Key: "k", Size: 3, Shards: 6, Written: 6})
	}))
	t.Cleanup(srv.Close)
	gc := NewGateClient(srv.URL)
	gc.retry.Cap = 10 * time.Millisecond
	ctx := context.Background()

	oi, err := gc.PutObject(ctx, "k", []byte("abc"))
	if err != nil {
		t.Fatalf("put through two 429s: %v", err)
	}
	if oi.Size != 3 {
		t.Fatalf("decoded %+v after retries", oi)
	}
	mu.Lock()
	total := hits
	mu.Unlock()
	if total != 3 {
		t.Fatalf("server saw %d attempts, want 3", total)
	}

	// Budget exhausted: the original status surfaces.
	mu.Lock()
	fails, hits = 1<<20, 0
	mu.Unlock()
	var se *StatusError
	if _, err := gc.PutObject(ctx, "k", []byte("abc")); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("persistent 429: got %v, want StatusError 429", err)
	}
	mu.Lock()
	total = hits
	mu.Unlock()
	if total != 3 {
		t.Fatalf("server saw %d attempts with budget 2, want 3", total)
	}

	// Retries disabled: one attempt only.
	gc.SetRetries(0)
	mu.Lock()
	hits = 0
	mu.Unlock()
	if _, err := gc.PutObject(ctx, "k", []byte("abc")); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("retries disabled: got %v, want StatusError 429", err)
	}
	mu.Lock()
	total = hits
	mu.Unlock()
	if total != 1 {
		t.Fatalf("server saw %d attempts with retries disabled, want 1", total)
	}
}

// TestWaitReadyCancel: a cancelled context aborts the readiness poll
// promptly instead of burning the full timeout.
func TestWaitReadyCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError) // never ready
	}))
	t.Cleanup(srv.Close)
	gc := NewGateClient(srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := gc.WaitReady(ctx, 30*time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("WaitReady ignored cancellation for %v", time.Since(start))
	}
}

// TestFaultAdminEndpoints drives the gateway's /v1/faults surface over
// real HTTP.
func TestFaultAdminEndpoints(t *testing.T) {
	gc, gw := simService(t, nil)
	ctx := context.Background()

	spec := FaultSpec{ErrorProb: 0.25, LatencyMult: 2}
	if err := gc.SetFault(ctx, 2, spec); err != nil {
		t.Fatalf("set fault: %v", err)
	}
	if got := gw.FaultStore(2).Fault(); got != spec {
		t.Fatalf("gateway spec %+v, want %+v", got, spec)
	}
	list, err := gc.Faults(ctx)
	if err != nil {
		t.Fatalf("list faults: %v", err)
	}
	if len(list) != 6 || list[2].Spec != spec || list[0].Spec.Active() {
		t.Fatalf("fault list %+v", list)
	}
	// Out-of-range OSD and invalid spec are 400s.
	if err := gc.SetFault(ctx, 99, spec); err == nil {
		t.Fatal("osd 99 accepted")
	}
	if err := gc.SetFault(ctx, 1, FaultSpec{ErrorProb: 3}); err == nil {
		t.Fatal("error_prob 3 accepted")
	}
	if err := gc.SetFault(ctx, 2, FaultSpec{}); err != nil {
		t.Fatalf("clear fault: %v", err)
	}

	// A mistyped field or anything after the object is a 400 that injects
	// nothing — a 200 here would tell the operator OSD 0 is cut off when it
	// is not.
	for _, body := range []string{`{"partion":true}`, `{"partition":true} trailing`, `{"partition":true}{}`} {
		var se *StatusError
		err := gc.call(ctx, http.MethodPost, "/v1/faults/0", []byte(body), nil)
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Fatalf("body %s: got %v, want 400", body, err)
		}
		if got := gw.FaultStore(0).Fault(); got.Active() {
			t.Fatalf("rejected body %s still injected %+v", body, got)
		}
	}
}

// FuzzFaultSpecBody throws arbitrary bytes at POST /v1/faults/0: the
// handler must not panic, and a body it accepts must have installed a spec
// that passes validate() and that survives a json.Marshal round trip
// through the same endpoint unchanged.
func FuzzFaultSpecBody(f *testing.F) {
	for _, seed := range []string{
		`{}`, `{"partition":true}`, `{"error_prob":0.1,"latency_mult":5,"stuck_prob":0.05,"stuck_ms":400}`,
		`{"delay_ms":-1}`, `{"error_prob":3}`, `{"partion":true}`, `{"partition":true} x`, `null`, ``, `[`, `{"stuck_ms":1e99}`,
	} {
		f.Add([]byte(seed))
	}
	gw := buildGateway(f, memStores(6), nil)
	h := gw.Handler()
	post := func(body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/faults/0", bytes.NewReader(body)))
		return rec.Code
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		switch code := post(body); code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for body %q", code, body)
		}
		spec := gw.FaultStore(0).Fault()
		if err := spec.validate(); err != nil {
			t.Fatalf("accepted body %q installed invalid spec %+v: %v", body, spec, err)
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal %+v: %v", spec, err)
		}
		if code := post(again); code != http.StatusOK || gw.FaultStore(0).Fault() != spec {
			t.Fatalf("spec %+v did not round-trip through %s: status %d, now %+v", spec, again, code, gw.FaultStore(0).Fault())
		}
	})
}

// TestWALTornTailTruncated: replay tolerating a torn tail is not enough —
// the torn bytes must also be dropped from disk before the log is
// appended to again, or the next record concatenates onto the partial
// line and a SECOND restart loses (or refuses) acknowledged records.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	rec := func(key string, gen int) string {
		b, _ := json.Marshal(walRecord{Op: "put", Key: key, Size: 1, SKey: fmt.Sprintf("%s@%d", key, gen), OSDs: []int{0}, OK: []bool{true}})
		return string(b) + "\n"
	}
	walPath := filepath.Join(dir, walFileName)
	if err := os.WriteFile(walPath, []byte(rec("a", 7)+`{"op":"put","key":"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	w, objects, _, err := openMetaWAL(dir, 0, 64<<10)
	if err != nil {
		t.Fatalf("torn tail must replay: %v", err)
	}
	if len(objects) != 1 || objects["a"] == nil {
		t.Fatalf("replayed %d objects, want just a", len(objects))
	}
	// Append a fresh record over the (now truncated) torn tail.
	if err := w.appendPut("b", &objectMeta{size: 1, skey: "b@9", osds: []int{0}, ok: []bool{true}}); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, objects2, maxGen, err := openMetaWAL(dir, 0, 64<<10)
	if err != nil {
		t.Fatalf("second restart must replay cleanly: %v", err)
	}
	defer w2.Close()
	if len(objects2) != 2 || objects2["a"] == nil || objects2["b"] == nil {
		t.Fatalf("second restart recovered %d objects, want a and b", len(objects2))
	}
	if maxGen != 9 {
		t.Fatalf("maxGen = %d, want 9 (record appended after the torn tail)", maxGen)
	}
}

// TestWALUnterminatedTailDropped: a final line that parses as JSON but is
// missing its newline was never acknowledged (the ack follows the fsync
// of the full line) — it must be treated as torn, not applied, and must
// not corrupt the record appended after it.
func TestWALUnterminatedTailDropped(t *testing.T) {
	dir := t.TempDir()
	full, _ := json.Marshal(walRecord{Op: "put", Key: "a", Size: 1, SKey: "a@3", OSDs: []int{0}, OK: []bool{true}})
	unterminated, _ := json.Marshal(walRecord{Op: "put", Key: "cut", Size: 1, SKey: "cut@4", OSDs: []int{0}, OK: []bool{true}})
	if err := os.WriteFile(filepath.Join(dir, walFileName),
		append(append(full, '\n'), unterminated...), 0o644); err != nil {
		t.Fatal(err)
	}
	w, objects, _, err := openMetaWAL(dir, 0, 64<<10)
	if err != nil {
		t.Fatalf("unterminated tail must replay: %v", err)
	}
	if len(objects) != 1 || objects["cut"] != nil {
		t.Fatalf("unacknowledged record applied: %d objects", len(objects))
	}
	if err := w.appendPut("b", &objectMeta{size: 1, skey: "b@5", osds: []int{0}, ok: []bool{true}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, objects2, _, err := openMetaWAL(dir, 0, 64<<10)
	if err != nil {
		t.Fatalf("restart after append: %v", err)
	}
	defer w2.Close()
	if len(objects2) != 2 || objects2["a"] == nil || objects2["b"] == nil {
		t.Fatalf("recovered %d objects, want a and b", len(objects2))
	}
}

// TestWALInterruptedCompaction: a crash between WAL rotation and the
// snapshot landing leaves meta.wal.old behind; startup must replay it
// (its records are covered by no snapshot) and finish the compaction.
func TestWALInterruptedCompaction(t *testing.T) {
	dir := t.TempDir()
	rec := func(key, skey string) []byte {
		b, _ := json.Marshal(walRecord{Op: "put", Key: key, Size: 1, SKey: skey, OSDs: []int{0}, OK: []bool{true}})
		return append(b, '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, snapFileName), rec("snapped", "snapped@1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walOldFileName), rec("rotated", "rotated@2"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFileName), rec("fresh", "fresh@3"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, objects, maxGen, err := openMetaWAL(dir, 0, 64<<10)
	if err != nil {
		t.Fatalf("open with leftover rotation: %v", err)
	}
	defer w.Close()
	for _, key := range []string{"snapped", "rotated", "fresh"} {
		if objects[key] == nil {
			t.Fatalf("record %q lost across the interrupted compaction", key)
		}
	}
	if maxGen != 3 {
		t.Fatalf("maxGen = %d, want 3", maxGen)
	}
	// The compaction was finished: the rotated log is gone and the
	// snapshot alone now covers its records.
	if _, err := os.Stat(filepath.Join(dir, walOldFileName)); !os.IsNotExist(err) {
		t.Fatalf("rotated log not cleaned up: %v", err)
	}
	snapped := map[string]*objectMeta{}
	if err := replayFile(filepath.Join(dir, snapFileName), snapped, 64<<10); err != nil {
		t.Fatal(err)
	}
	if snapped["rotated"] == nil {
		t.Fatal("finished snapshot does not cover the rotated log")
	}
}

// TestBreakerProbeTimeout: a half-open probe whose outcome is never
// recorded (e.g. the request that carried it was cancelled, so truthful
// scoring skipped it) must not wedge the breaker — after another
// cooldown a replacement probe is admitted.
func TestBreakerProbeTimeout(t *testing.T) {
	t0 := time.Unix(4000, 0)
	b := NewBreaker(1, time.Second)
	b.Record(false, t0)
	if b.State() != BreakerOpen {
		t.Fatalf("state %v, want open", b.State())
	}
	p1 := t0.Add(2 * time.Second)
	if !b.Allow(p1) {
		t.Fatal("cooldown elapsed: probe must be admitted")
	}
	if b.Allow(p1.Add(500 * time.Millisecond)) {
		t.Fatal("second op admitted while the probe is still fresh")
	}
	// The probe's outcome is never recorded. One cooldown later a
	// replacement probe must go through, or the OSD is ejected forever.
	p2 := p1.Add(2 * time.Second)
	if !b.Allow(p2) {
		t.Fatal("breaker wedged half-open: lost probe never replaced")
	}
	b.Record(true, p2)
	if b.State() != BreakerClosed {
		t.Fatalf("successful replacement probe: state %v, want closed", b.State())
	}
}

// cancelAwareStore fails Put/Get with the context's error once it is
// done, like any real networked store; otherwise it passes through.
type cancelAwareStore struct {
	ShardStore
}

func (s cancelAwareStore) Put(ctx context.Context, key string, shard int, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.ShardStore.Put(ctx, key, shard, data)
}

func (s cancelAwareStore) Get(ctx context.Context, key string, shard int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.ShardStore.Get(ctx, key, shard)
}

// TestCancelledOpsNotScored: a burst of client disconnects (cancelled
// request contexts) says nothing about OSD health and must not trip
// breakers or mark OSDs down — with >M breakers open, reads would fail
// for every client.
func TestCancelledOpsNotScored(t *testing.T) {
	stores := memStores(6)
	for i := range stores {
		stores[i] = cancelAwareStore{stores[i]}
	}
	gw := buildGateway(t, stores, func(cfg *GatewayConfig) {
		fastRetries(cfg)
		cfg.HedgeDelay = 0 // exercise the attempt/score path directly
	})
	data := payload(128<<10, 61)
	if _, err := gw.PutObject(context.Background(), "cancel/obj", data); err != nil {
		t.Fatalf("put: %v", err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5; i++ {
		if _, _, err := gw.GetObject(cctx, "cancel/obj"); err == nil {
			t.Fatal("get with cancelled context succeeded")
		}
		if _, err := gw.PutObject(cctx, "cancel/other", data); err == nil {
			t.Fatal("put with cancelled context succeeded")
		}
	}
	for osd := 0; osd < 6; osd++ {
		if st := gw.Breaker(osd).State(); st != BreakerClosed {
			t.Fatalf("osd %d breaker %v after cancellations, want closed", osd, st)
		}
		if r := gw.Breaker(osd).FailureRate(); r != 0 {
			t.Fatalf("osd %d failure rate %v after cancellations, want 0", osd, r)
		}
	}
	if st := gw.Status(); st.OSDsDown != 0 {
		t.Fatalf("%d OSDs marked down by cancelled ops", st.OSDsDown)
	}
	// A healthy client still reads the object cleanly.
	got, info, err := gw.GetObject(context.Background(), "cancel/obj")
	if err != nil || info.Degraded || !bytes.Equal(got, data) {
		t.Fatalf("healthy read after cancellation burst: err=%v info=%+v", err, info)
	}
}

// countFailStore counts physical Get calls and fails each with a
// transient error.
type countFailStore struct {
	*MemStore
	mu   sync.Mutex
	gets int
}

func (s *countFailStore) Get(ctx context.Context, key string, shard int) ([]byte, error) {
	s.mu.Lock()
	s.gets++
	s.mu.Unlock()
	return nil, errBlip
}

// TestHalfOpenSingleProbe: the breaker admits exactly one op while
// half-open, and the read path must honour that — no hedge duplicate, no
// retries after the failed probe re-trips the circuit. Exactly one
// physical request reaches the OSD.
func TestHalfOpenSingleProbe(t *testing.T) {
	stores := memStores(6)
	cs := &countFailStore{MemStore: NewMemStore(0)}
	stores[0] = cs
	gw := buildGateway(t, stores, func(cfg *GatewayConfig) {
		fastRetries(cfg)
		cfg.HedgeDelay = time.Millisecond // would fan out if not suppressed
		// Long enough that the retry backoffs (1-4ms) cannot straddle a
		// second cooldown and legitimately earn a second probe.
		cfg.BreakerCooldown = 250 * time.Millisecond
	})
	now := time.Now()
	for i := 0; i < gw.cfg.BreakerThreshold; i++ {
		gw.Breaker(0).Record(false, now)
	}
	if gw.Breaker(0).State() != BreakerOpen {
		t.Fatalf("state %v, want open", gw.Breaker(0).State())
	}
	time.Sleep(260 * time.Millisecond) // cooldown elapses → next op is the probe
	if _, err := gw.fetchShard(context.Background(), "probe@1", 0, 0, 1); err == nil {
		t.Fatal("fetch through a failing probe succeeded")
	}
	cs.mu.Lock()
	gets := cs.gets
	cs.mu.Unlock()
	if gets != 1 {
		t.Fatalf("half-open admitted %d physical ops, want exactly 1 probe", gets)
	}
	if st := gw.Breaker(0).State(); st != BreakerOpen {
		t.Fatalf("failed probe left breaker %v, want open", st)
	}
}

// stallPutStore parks every Put until its context ends, like an OSD that
// accepted the connection and then went silent.
type stallPutStore struct{ *MemStore }

func (s stallPutStore) Put(ctx context.Context, key string, shard int, data []byte) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestRollbackAfterDeadline: a PUT that fails because its own deadline
// expired (3 of 6 OSDs stall past RequestTimeout, so only 3 < k shards
// land) must still roll the landed shards back. The rollback cannot run
// on the request context — it is already dead — or every delete is
// cancelled before it is sent and the shards leak for good.
func TestRollbackAfterDeadline(t *testing.T) {
	stores := make([]ShardStore, 6)
	healthy := make([]*MemStore, 3)
	for i := range stores {
		ms := NewMemStore(i)
		if i < len(healthy) {
			healthy[i], stores[i] = ms, ms
		} else {
			stores[i] = stallPutStore{ms}
		}
	}
	gw := buildGateway(t, stores, func(cfg *GatewayConfig) {
		cfg.RequestTimeout = 50 * time.Millisecond
	})
	_, err := gw.PutObject(context.Background(), "late/obj", payload(64<<10, 71))
	if !errors.Is(err, ErrInsufficientShards) {
		t.Fatalf("put past its deadline: got %v, want ErrInsufficientShards", err)
	}
	for i, ms := range healthy {
		if keys := ms.Keys(); len(keys) != 0 {
			t.Fatalf("osd %d still holds %v after the rollback", i, keys)
		}
	}
	// The stalls were the request's deadline, not evidence against the OSDs.
	if st := gw.Status(); st.OSDsDown != 0 {
		t.Fatalf("%d OSDs marked down by a request deadline", st.OSDsDown)
	}
}

// TestOSDHealthViewFromBreaker: /v1/osds' health columns and
// /v1/status.osds_down are the breaker's own record — three failed ops
// open it and mark the OSD down with the failure run and its cause; a
// successful probe after the heal clears all of it.
func TestOSDHealthViewFromBreaker(t *testing.T) {
	gw := buildGateway(t, memStores(6), func(cfg *GatewayConfig) {
		fastRetries(cfg)
		cfg.BreakerCooldown = 50 * time.Millisecond
	})
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	view := func() (row map[string]any, osdsDown float64) {
		t.Helper()
		var rows []map[string]any
		var status map[string]any
		for path, v := range map[string]any{"/v1/osds": &rows, "/v1/status": &status} {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(v)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		return rows[0], status["osds_down"].(float64)
	}
	ctx := context.Background()
	if err := gw.FaultStore(0).SetFault(FaultSpec{Partition: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < gw.cfg.BreakerThreshold; i++ {
		// Every PUT places one shard on each of the 6 OSDs; 5 of 6 land.
		if _, err := gw.PutObject(ctx, fmt.Sprintf("hv/obj-%d", i), payload(8<<10, int64(80+i))); err != nil {
			t.Fatalf("degraded put %d: %v", i, err)
		}
	}
	row, down := view()
	if row["gateway_down"] != true || row["breaker"] != "open" || row["consecutive_fails"] != float64(gw.cfg.BreakerThreshold) {
		t.Fatalf("/v1/osds row 0 after %d failed ops: %v", gw.cfg.BreakerThreshold, row)
	}
	if cause, _ := row["last_error"].(string); !strings.Contains(cause, "partition") {
		t.Fatalf("last_error = %q, want the injected partition", cause)
	}
	if down != 1 {
		t.Fatalf("/v1/status osds_down = %v, want 1", down)
	}

	if err := gw.FaultStore(0).SetFault(FaultSpec{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // cooldown elapses → the next op is the probe
	if oi, err := gw.PutObject(ctx, "hv/healed", payload(8<<10, 89)); err != nil || oi.Written != oi.Shards {
		t.Fatalf("put after heal: %+v, %v", oi, err)
	}
	row, down = view()
	_, hasCause := row["last_error"]
	if row["gateway_down"] != false || row["breaker"] != "closed" || row["consecutive_fails"] != float64(0) || hasCause {
		t.Fatalf("/v1/osds row 0 after a successful probe: %v", row)
	}
	if down != 0 {
		t.Fatalf("/v1/status osds_down = %v after heal, want 0", down)
	}
}

// TestWALParentFormat: a MetaDir written by the gateway as it was before
// the index moved behind metaIndex and before stripe geometry became per
// object (snapshot + log, an overwrite and a delete; bytes captured from
// that commit) is served unchanged — same objects, same generation keys,
// every chunk-less record read at cfg.ChunkSize, and the generation
// counter resumes above them.
func TestWALParentFormat(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		snapFileName: `{"op":"put","key":"xv/a","size":1002,"skey":"xv/a@3","osds":[2,5,3,1,4,0],"ok":[true,true,true,true,true,true]}
{"op":"put","key":"xv/b","size":1001,"skey":"xv/b@2","osds":[3,2,5,0,1,4],"ok":[true,true,true,true,true,true]}
`,
		walFileName: `{"op":"put","key":"xv/c","size":1003,"skey":"xv/c@4","osds":[3,0,5,4,2,1],"ok":[true,true,true,true,true,true]}
{"op":"del","key":"xv/b"}
`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The stores hold what that gateway left behind for the two live
	// records: shards striped at the full ChunkSize, so a 1 KB object is
	// one 64 KiB chunk per shard. Seeded with the codec directly — today's
	// PutObject would write today's geometry, not the parent's.
	ctx := context.Background()
	stores := memStores(6)
	cfg := DefaultGatewayConfig()
	code, err := rs.New(cfg.K, cfg.M)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, o := range []struct {
		key, skey string
		size      int
		osds      []int
	}{
		{"xv/a", "xv/a@3", 1002, []int{2, 5, 3, 1, 4, 0}},
		{"xv/c", "xv/c@4", 1003, []int{3, 0, 5, 4, 2, 1}},
	} {
		want[o.key] = payload(o.size, int64(o.size))
		shards := make([]bytes.Buffer, len(o.osds))
		writers := make([]io.Writer, len(o.osds))
		for i := range shards {
			writers[i] = &shards[i]
		}
		if _, err := code.StreamEncode(bytes.NewReader(want[o.key]), writers, cfg.ChunkSize); err != nil {
			t.Fatal(err)
		}
		for i, osd := range o.osds {
			if shards[i].Len() != cfg.ChunkSize {
				t.Fatalf("parent-shaped shard is %d bytes, want one full %d-byte chunk", shards[i].Len(), cfg.ChunkSize)
			}
			if err := stores[osd].Put(ctx, o.skey, i, shards[i].Bytes()); err != nil {
				t.Fatal(err)
			}
		}
	}

	gw := buildGateway(t, stores, func(cfg *GatewayConfig) { cfg.MetaDir = dir })
	t.Cleanup(func() { gw.Close() })
	for _, key := range []string{"xv/a", "xv/c"} {
		if m, _ := gw.lookup(key); m.chunk != cfg.ChunkSize {
			t.Fatalf("%s: chunk-less record read at chunk %d, want cfg.ChunkSize %d", key, m.chunk, cfg.ChunkSize)
		}
		got, info, err := gw.GetObject(ctx, key)
		if err != nil || info.Degraded || !bytes.Equal(got, want[key]) {
			t.Fatalf("get %s from the parent's MetaDir: err=%v info=%+v", key, err, info)
		}
	}
	if _, _, err := gw.GetObject(ctx, "xv/b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key: got %v, want ErrNotFound", err)
	}
	if st := gw.Status(); st.Objects != 2 || st.BytesStored != 1002+1003 {
		t.Fatalf("status after replay: %d objects, %d bytes", st.Objects, st.BytesStored)
	}
	if _, err := gw.PutObject(ctx, "xv/d", payload(10, 9)); err != nil {
		t.Fatal(err)
	}
	if m, _ := gw.lookup("xv/d"); m.skey != "xv/d@5" {
		t.Fatalf("generation resumed at %q, want xv/d@5", m.skey)
	}
}

// TestWALChunkField is TestWALParentFormat's twin for the format written
// today: objects of every geometry survive a compaction and a restart byte
// for byte, a snapshot or log line carries "chunk" exactly when the
// object's stripe unit is not cfg.ChunkSize, and a line that does not
// carry it is the parent's line.
func TestWALChunkField(t *testing.T) {
	dir := t.TempDir()
	stores := memStores(6)
	mk := func() *Gateway {
		return buildGateway(t, stores, func(cfg *GatewayConfig) {
			cfg.MetaDir = dir
			cfg.MetaCompactThreshold = 4
		})
	}
	ctx := context.Background()
	gw := mk()
	// Four PUTs reach the threshold, so these are snapshot lines; the
	// fifth lands in the fresh log. chunk 0: striped at cfg.ChunkSize, so
	// the line must not carry the field.
	chunkOf := map[string]int{}
	want := map[string][]byte{}
	for i, o := range []struct {
		key         string
		size, chunk int
	}{{"g/1", 1, 512}, {"g/8k", 8 << 10, 2048}, {"g/300k", 300 << 10, 38400}, {"g/1m", 1 << 20, 0}, {"g/513", 513, 512}} {
		chunkOf[o.key] = o.chunk
		want[o.key] = payload(o.size, int64(70+i))
		if _, err := gw.PutObject(ctx, o.key, want[o.key]); err != nil {
			t.Fatalf("put %s: %v", o.key, err)
		}
	}
	if n := gw.Metrics().Counter("ecgate_wal_compactions_total").Value(); n != 1 {
		t.Fatalf("wal_compactions_total = %d, want 1", n)
	}
	lines := 0
	for _, name := range []string{snapFileName, walFileName} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("%s: %v in %q", name, err, line)
			}
			lines++
			key := rec["key"].(string)
			chunk, has := rec["chunk"]
			switch wantChunk := chunkOf[key]; {
			case wantChunk == 0 && has:
				t.Fatalf("%s: %s is striped at cfg.ChunkSize, yet its line carries chunk=%v", name, key, chunk)
			case wantChunk != 0 && (!has || int(chunk.(float64)) != wantChunk):
				t.Fatalf("%s: %s line has chunk=%v (present=%v), want %d", name, key, chunk, has, wantChunk)
			}
		}
	}
	if lines != len(want) {
		t.Fatalf("snapshot + log hold %d lines, want %d", lines, len(want))
	}
	// gw is abandoned, as a killed gateway would be.
	gw2 := mk()
	t.Cleanup(func() { gw2.Close() })
	for key, data := range want {
		got, info, err := gw2.GetObject(ctx, key)
		if err != nil || info.Degraded || !bytes.Equal(got, data) {
			t.Fatalf("restarted get %s: err=%v info=%+v match=%v", key, err, info, bytes.Equal(got, data))
		}
	}
}
