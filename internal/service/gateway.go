package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ecarray/internal/qos"
	"ecarray/internal/retry"
	"ecarray/internal/rs"
)

// Gateway-level errors; the HTTP layer maps them onto status codes.
var (
	// ErrOverloaded: the bounded in-flight admission gate is full (429).
	ErrOverloaded = errors.New("service: gateway overloaded")
	// ErrInsufficientShards: fewer than k shards reachable (503).
	ErrInsufficientShards = errors.New("service: fewer than k shards reachable")
	// ErrBadRequest wraps client-side validation failures (400).
	ErrBadRequest = errors.New("service: bad request")
	// ErrTooLarge: object exceeds the configured body limit (413).
	ErrTooLarge = errors.New("service: object too large")
)

// GatewayConfig parameterizes the access gateway.
type GatewayConfig struct {
	// K and M are the RS(k,m) geometry; K+M shards are placed per object.
	K, M int
	// ChunkSize is the largest stripe unit (per-shard chunk) in bytes;
	// objects smaller than a stripe use a smaller one, recorded per
	// object (see chunkFor).
	ChunkSize int
	// ShardTimeout bounds each shard-store op; a shard slower than this is
	// abandoned and the read falls back to parity reconstruction.
	ShardTimeout time.Duration
	// RequestTimeout bounds a whole object request.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently admitted object requests; excess
	// requests are rejected with ErrOverloaded (HTTP 429).
	MaxInflight int
	// Admission, when non-nil, replaces the default admission gate with
	// an arbitrary qos.AdmissionPolicy. Nil selects the built-in policy:
	// qos.MaxInflight over MaxInflight slots, or — when Tenants is
	// non-empty — qos.WeightedFair partitioning those slots across
	// tenants by weight. Either way the gate is one implementation of
	// the same policy interface, and every rejection carries the
	// policy's DecisionTrace and a queue-derived Retry-After.
	Admission qos.AdmissionPolicy
	// Tenants configures per-tenant admission (weights, rates) keyed by
	// the X-Tenant request header value. Only consulted when Admission
	// is nil (see above).
	Tenants map[string]qos.TenantConfig
	// MaxObjectBytes bounds PUT bodies.
	MaxObjectBytes int64
	// Retries bounds automatic re-attempts of a transient shard-op
	// failure (injected faults, timeouts, transport resets); 0 disables.
	// Each retry backs off exponentially from RetryBase (capped at
	// RetryMax) plus seeded jitter.
	Retries   int
	RetryBase time.Duration
	RetryMax  time.Duration
	// HedgeDelay launches a single second (hedged) shard GET when the
	// first has not answered within this delay; first result wins and the
	// loser is cancelled. 0 disables hedging.
	HedgeDelay time.Duration
	// BreakerThreshold is the consecutive-failure count that trips an
	// OSD's circuit breaker (an EWMA failure-rate criterion also applies;
	// see Breaker). Open OSDs are skipped by read waves and writes
	// degrade around them until a half-open probe succeeds after
	// BreakerCooldown. The breaker is also the OSD's health record on
	// /v1/osds and /v1/status. 0 disables the breakers and that view.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed drives the retry-jitter RNG (deterministic backoff sequences
	// under test); 0 means 1.
	Seed int64
	// MetaDir, when non-empty, makes object metadata crash-safe: an
	// append-only JSONL WAL (fsync per record) replayed on startup, with
	// snapshot compaction every MetaCompactThreshold records (default
	// 1024). Empty keeps the index in-memory only.
	MetaDir              string
	MetaCompactThreshold int
	// Logger receives one structured line per request; nil discards.
	Logger *slog.Logger
	// Sim, when non-nil, reports simulated time on /v1/status.
	Sim SimClock
	// Backend names the shard-store flavour for /v1/status.
	Backend string
}

// DefaultGatewayConfig returns production-shaped defaults for a 6-OSD
// virtual cluster: RS(4,2), stripe units up to 64 KiB, 2 s shard deadline.
func DefaultGatewayConfig() GatewayConfig {
	return GatewayConfig{
		K: 4, M: 2,
		ChunkSize:        64 << 10,
		ShardTimeout:     2 * time.Second,
		RequestTimeout:   15 * time.Second,
		MaxInflight:      256,
		MaxObjectBytes:   64 << 20,
		Retries:          2,
		RetryBase:        20 * time.Millisecond,
		RetryMax:         250 * time.Millisecond,
		HedgeDelay:       150 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Second,
		Seed:             1,
	}
}

func (c *GatewayConfig) validate() error {
	if c.K <= 0 || c.M <= 0 {
		return fmt.Errorf("service: K and M must be positive (got %d,%d)", c.K, c.M)
	}
	if c.ChunkSize <= 0 {
		return fmt.Errorf("service: ChunkSize must be positive")
	}
	if c.MaxInflight <= 0 {
		return fmt.Errorf("service: MaxInflight must be positive")
	}
	if c.MaxObjectBytes <= 0 {
		return fmt.Errorf("service: MaxObjectBytes must be positive")
	}
	if c.ShardTimeout <= 0 || c.RequestTimeout <= 0 {
		return fmt.Errorf("service: timeouts must be positive")
	}
	if c.Retries < 0 || c.BreakerThreshold < 0 {
		return fmt.Errorf("service: Retries and BreakerThreshold must be >= 0")
	}
	if c.RetryBase < 0 || c.RetryMax < 0 || c.HedgeDelay < 0 || c.BreakerCooldown < 0 {
		return fmt.Errorf("service: retry/hedge/breaker durations must be >= 0")
	}
	// Normalize optional knobs so zero-valued configs behave sanely.
	if c.RetryBase == 0 {
		c.RetryBase = 20 * time.Millisecond
	}
	if c.RetryMax == 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// ObjectInfo describes a stored object.
type ObjectInfo struct {
	Key     string `json:"key"`
	Size    int64  `json:"size"`
	Shards  int    `json:"shards"`
	Written int    `json:"written"` // < Shards means a degraded write
	OSDs    []int  `json:"osds"`
}

// GetInfo describes how a read was served.
type GetInfo struct {
	Size          int64
	Degraded      bool // at least one data shard was reconstructed
	Reconstructed int  // number of data shards rebuilt from parity
	ShardErrors   int  // shard fetches that failed or timed out
}

// Gateway is the access layer: object PUT/GET/DELETE over k+m shard
// stores, with CRUSH placement, degraded-read fallback, bounded
// admission, structured logs and Prometheus-text metrics (source map in
// doc.go).
type Gateway struct {
	cfg    GatewayConfig
	code   *rs.Code
	placer *Placer
	osds   []osdPath // indexed by OSD ID
	log    *slog.Logger
	reg    *Registry
	series *gatewaySeries

	admission qos.AdmissionPolicy
	retry     retry.Policy
	tenants   sync.Map // tenant identity → *tenantSeries, filled by tenant()

	gen atomic.Uint64 // generation stamp for backend shard keys

	// Embedded so index state has one owner: gateway code calls lookup,
	// commit and remove and touches no field of it.
	*metaIndex
}

// NewGateway wires a gateway over one ShardStore per OSD (indexed by OSD
// ID, matching the placer's device IDs).
func NewGateway(cfg GatewayConfig, stores []ShardStore, placer *Placer) (*Gateway, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if placer == nil {
		return nil, fmt.Errorf("service: nil placer")
	}
	if placer.Width() != cfg.K+cfg.M {
		return nil, fmt.Errorf("service: placer width %d != k+m %d", placer.Width(), cfg.K+cfg.M)
	}
	if len(stores) != placer.Devices() {
		return nil, fmt.Errorf("service: %d stores for %d devices", len(stores), placer.Devices())
	}
	code, err := rs.New(cfg.K, cfg.M)
	if err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	reg := NewRegistry()
	g := &Gateway{
		cfg:    cfg,
		code:   code,
		placer: placer,
		log:    logger,
		reg:    reg,
		series: newGatewaySeries(reg),
	}
	// Seeded jitter: a random extra in [0, 50%] of the capped exponential
	// base, from one RNG shared by every shard op.
	var rngMu sync.Mutex
	rng := rand.New(rand.NewSource(cfg.Seed))
	g.retry = retry.Policy{Max: cfg.Retries, Base: cfg.RetryBase, Cap: cfg.RetryMax,
		Jitter: func(d time.Duration) time.Duration {
			rngMu.Lock()
			defer rngMu.Unlock()
			return time.Duration(rng.Int63n(int64(d/2) + 1))
		}}
	g.admission = cfg.Admission
	if g.admission == nil {
		if len(cfg.Tenants) > 0 {
			g.admission = qos.NewWeightedFair(cfg.MaxInflight, qos.TenantConfig{Weight: 1}, cfg.Tenants)
		} else {
			g.admission = qos.NewMaxInflight(cfg.MaxInflight)
		}
	}
	g.osds = make([]osdPath, len(stores))
	for i, s := range stores {
		b := NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
		b.onTrip = g.series.breakerTrips.Inc
		g.osds[i] = osdPath{
			gw: g,
			// Every backend is wrapped in a FaultStore — the service's one
			// fault injector — so an OSD can be killed, slowed or made
			// flaky on any gateway at runtime (a zero spec is a straight
			// pass-through).
			store:   NewFaultStore(s, i, cfg.Seed),
			breaker: b,
			state:   reg.Gauge(fmt.Sprintf("ecgate_breaker_state{osd=\"%d\"}", i)),
		}
	}
	var maxGen uint64
	if g.metaIndex, maxGen, err = openMetaIndex(cfg.MetaDir, cfg.MetaCompactThreshold, cfg.ChunkSize, logger, g.series); err != nil {
		return nil, err
	}
	g.gen.Store(maxGen)
	return g, nil
}

// Close releases the metadata WAL (no-op for in-memory gateways).
func (g *Gateway) Close() error { return g.wal.Close() }

// Metrics returns the gateway's registry (the /metrics source).
func (g *Gateway) Metrics() *Registry { return g.reg }

// chunkFor returns the stripe unit an object of size bytes is striped at:
// the object is spread evenly over the stripes it needs at ChunkSize, in
// 512-byte steps. What is stored is then (k+m)/k × size plus at most 512 B
// per chunk at every size; striping a small object at ChunkSize itself
// would pad it to a whole k × ChunkSize stripe (48× an 8 KiB object at the
// defaults). A size that is a multiple of k × ChunkSize keeps ChunkSize
// exactly.
func (g *Gateway) chunkFor(size int64) int {
	k, largest := int64(g.cfg.K), int64(g.cfg.ChunkSize)
	size = max(size, 1) // an empty object still gets a positive chunk
	stripes := ceilDiv(size, k*largest)
	return int(min(largest, 512*ceilDiv(ceilDiv(size, k*stripes), 512)))
}

// shardLen returns the per-shard stream length for a payload of size
// bytes striped at chunk: whole stripes, the last one zero-padded.
func (g *Gateway) shardLen(size int64, chunk int) int64 {
	return ceilDiv(size, int64(g.cfg.K)*int64(chunk)) * int64(chunk)
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// PutObject stores data under key: PutObjectFrom over a byte slice.
func (g *Gateway) PutObject(ctx context.Context, key string, data []byte) (ObjectInfo, error) {
	return g.PutObjectFrom(ctx, key, bytes.NewReader(data), int64(len(data)))
}

// PutObjectFrom reads a size-byte object from body, stripes it into k+m
// shards and fans them out to the placed OSDs. At least k shards must
// land; fewer is ErrInsufficientShards and any partial shards are deleted.
// Fewer than k+m (but ≥ k) is a degraded write, counted and recorded in
// the object's shard mask. Nothing is read from body, and nothing sized by
// it allocated, until the request is admitted, within the size limit and
// placed; a body that ends short of size is ErrBadRequest and reaches no
// store.
func (g *Gateway) PutObjectFrom(ctx context.Context, key string, body io.Reader, size int64) (ObjectInfo, error) {
	release, err := g.admit(ctx)
	if err != nil {
		return ObjectInfo{}, err
	}
	defer release()
	if key == "" {
		return ObjectInfo{}, fmt.Errorf("%w: empty key", ErrBadRequest)
	}
	if size < 0 {
		return ObjectInfo{}, fmt.Errorf("%w: negative size %d", ErrBadRequest, size)
	}
	if size > g.cfg.MaxObjectBytes {
		return ObjectInfo{}, fmt.Errorf("%w: %d bytes > limit %d", ErrTooLarge, size, g.cfg.MaxObjectBytes)
	}
	ctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()

	width := g.cfg.K + g.cfg.M
	osds, err := g.placer.Place(key)
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("service: placement: %w", err)
	}
	chunk := g.chunkFor(size)
	shards, err := g.readShards(ctx, body, size, chunk)
	if err != nil {
		return ObjectInfo{}, err
	}
	// Generation-stamped backend key: a fresh name per PUT, so overwrites
	// never mutate the live object's shards in place (the stamp cannot
	// collide with a user key — it always ends in "@<number>").
	skey := fmt.Sprintf("%s@%d", key, g.gen.Add(1))

	// Fan out shard writes, each under its own deadline. The stores may
	// keep the buffers (ShardStore.Put): they are not touched again.
	meta := &objectMeta{size: size, chunk: chunk, skey: skey, osds: osds, ok: make([]bool, width)}
	var wg sync.WaitGroup
	for i := 0; i < width; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := &g.osds[osds[i]]
			_, err := p.do(ctx, "put", 0, func(c context.Context) ([]byte, error) {
				return nil, p.store.Put(c, skey, i, shards[i])
			})
			meta.ok[i] = err == nil
		}(i)
	}
	wg.Wait()

	written := 0
	for _, ok := range meta.ok {
		if ok {
			written++
		}
	}
	g.series.op["put"].errors.Add(int64(width - written))
	if written < g.cfg.K {
		// Not durable: roll back this generation's shards. The previous
		// object generation (if any) is untouched and stays readable.
		g.deleteShards(ctx, meta, "put")
		return ObjectInfo{}, fmt.Errorf("%w: %d of %d shard writes landed, need %d",
			ErrInsufficientShards, written, width, g.cfg.K)
	}
	if written < width {
		g.series.degradedWrites.Inc()
	}

	old, err := g.commit(key, meta)
	if err != nil {
		g.deleteShards(ctx, meta, "put")
		return ObjectInfo{}, err
	}
	if old != nil {
		// Best-effort cleanup of the superseded generation's shards.
		g.deleteShards(ctx, old, "put")
	}
	g.series.bytesIn.Add(size)
	return ObjectInfo{Key: key, Size: size, Shards: width, Written: written, OSDs: osds}, nil
}

// readShards reads a size-byte body into the k+m whole-shard buffers a PUT
// fans out: each stripe's k chunks land at their final offset in the data
// shards and the stripe's parity is encoded in place beside them, so no
// payload byte is written twice. RS works byte position by byte position,
// so the shards equal what rs.StreamEncode writes at the same chunk. The
// buffers follow readBody's rule for a declared length: bodyHead between
// the data shards up front, then at most eight times what has arrived
// (one copy of the head for an object over bodyHead), so a sender that
// declares much and sends little pins little. The zero padding after the
// payload's last byte is the buffers' own zero fill.
func (g *Gateway) readShards(ctx context.Context, body io.Reader, size int64, chunk int) ([][]byte, error) {
	k, c := g.cfg.K, int64(chunk)
	shardLen := g.shardLen(size, chunk)
	have := min(shardLen, max(c, bodyHead/int64(k)/c*c)) // allocated per shard, in whole stripes
	shards := make([][]byte, k+g.cfg.M)
	for i := range shards {
		shards[i] = make([]byte, have)
	}
	views := make([][]byte, len(shards))
	for off, left := int64(0), size; off < shardLen; off += c {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: reading body: %v", ErrBadRequest, err)
		}
		if off == have {
			have = min(shardLen, 8*have)
			for i, head := range shards {
				shards[i] = make([]byte, have)
				copy(shards[i], head)
			}
		}
		for i := range views {
			views[i] = shards[i][off : off+c]
		}
		for d := 0; d < k && left > 0; d++ {
			n := min(c, left)
			if _, err := io.ReadFull(body, views[d][:n]); err != nil {
				return nil, bodyError(err, g.cfg.MaxObjectBytes)
			}
			left -= n
		}
		if err := g.code.Encode(views); err != nil {
			return nil, fmt.Errorf("service: encode: %w", err)
		}
	}
	return shards, nil
}

// deleteShards removes every landed shard of one object generation, best
// effort (down OSDs and already-gone shards are not errors). It runs
// detached from ctx's cancellation and deadline: its callers have already
// decided this generation must go (failed or superseded PUT, logged
// DELETE), and a request that failed because its deadline expired or its
// client left would otherwise cancel every delete before it is sent and
// leak the shards for good. Each attempt is still bounded by ShardTimeout.
func (g *Gateway) deleteShards(ctx context.Context, meta *objectMeta, op string) {
	ctx = context.WithoutCancel(ctx)
	var wg sync.WaitGroup
	for i := range meta.ok {
		if !meta.ok[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := &g.osds[meta.osds[i]]
			_, err := p.do(ctx, "delete", 0, func(c context.Context) ([]byte, error) {
				return nil, p.store.Delete(c, meta.skey, i)
			})
			if err != nil && !errors.Is(err, ErrNotFound) {
				g.series.op[op].errors.Inc()
			}
		}(i)
	}
	wg.Wait()
}

// fetchWave fetches the given shard indices concurrently into have and
// returns how many arrived.
func (g *Gateway) fetchWave(ctx context.Context, meta *objectMeta, idxs []int, want int64, have [][]byte) int {
	var wg sync.WaitGroup
	for _, i := range idxs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			have[i], _ = g.fetchShard(ctx, meta.skey, i, meta.osds[i], want)
		}(i)
	}
	wg.Wait()
	got := 0
	for _, i := range idxs {
		if have[i] != nil {
			got++
		}
	}
	return got
}

// GetObject reads an object back into memory: GetObjectTo over a buffer.
func (g *Gateway) GetObject(ctx context.Context, key string) ([]byte, GetInfo, error) {
	var out bytes.Buffer
	info, _, err := g.GetObjectTo(ctx, key, &out, func(info GetInfo) { out.Grow(int(info.Size)) })
	if err != nil {
		return nil, info, err
	}
	return out.Bytes(), info, nil
}

// GetObjectTo reads an object back and writes it to w. The k data shards
// are fetched first; any that are missing, down, slow past the shard
// deadline, or wrong-length are replaced by parity shards and rebuilt —
// a degraded read. Fewer than k reachable shards is ErrInsufficientShards.
// Once the shards are in hand (and the admission slot given back) header,
// if not nil, is told how the read was served; then the payload goes to w
// chunk by chunk straight from the shard buffers. written is what w took:
// short of info.Size only with w's error, in which case header has already
// run and the caller must not start a second response.
func (g *Gateway) GetObjectTo(ctx context.Context, key string, w io.Writer, header func(GetInfo)) (info GetInfo, written int64, err error) {
	meta, shards, info, err := g.fetchObject(ctx, key)
	if err != nil {
		return info, 0, err
	}
	if header != nil {
		header(info)
	}
	c := int64(meta.chunk)
	for off := int64(0); written < meta.size; off += c {
		for d := 0; d < g.cfg.K && written < meta.size; d++ {
			n, err := w.Write(shards[d][off : off+min(c, meta.size-written)])
			written += int64(n)
			if err != nil {
				return info, written, fmt.Errorf("service: writing object: %w", err)
			}
		}
	}
	g.series.bytesOut.Add(meta.size)
	return info, written, nil
}

// fetchObject is the admitted half of a GET: look the object up, fetch k
// of its shards in waves and rebuild any missing data shard, under the
// request deadline. It returns the k data shards (and whatever parity was
// fetched); the admission slot is released on return, before a byte goes
// to the client.
func (g *Gateway) fetchObject(ctx context.Context, key string) (*objectMeta, [][]byte, GetInfo, error) {
	release, err := g.admit(ctx)
	if err != nil {
		return nil, nil, GetInfo{}, err
	}
	defer release()
	meta, exists := g.lookup(key)
	if !exists {
		return nil, nil, GetInfo{}, ErrNotFound
	}
	if meta.size == 0 {
		return meta, nil, GetInfo{}, nil
	}
	ctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()

	width := g.cfg.K + g.cfg.M
	want := g.shardLen(meta.size, meta.chunk)
	have := make([][]byte, width)

	// Wave 1: the data shards that were written.
	var wave []int
	for i := 0; i < g.cfg.K; i++ {
		if meta.ok[i] {
			wave = append(wave, i)
		}
	}
	tried := len(wave)
	got := g.fetchWave(ctx, meta, wave, want, have)

	// Parity waves: replace every missing data shard, walking the parity
	// candidates in order until k streams are in hand or none remain.
	next := g.cfg.K
	for got < g.cfg.K && next < width {
		wave = wave[:0]
		for i := next; i < width && len(wave) < g.cfg.K-got; i++ {
			next = i + 1
			if meta.ok[i] {
				wave = append(wave, i)
			}
		}
		if len(wave) == 0 {
			break
		}
		tried += len(wave)
		got += g.fetchWave(ctx, meta, wave, want, have)
	}
	info := GetInfo{ShardErrors: tried - got}
	g.series.op["get"].errors.Add(int64(info.ShardErrors))
	if got < g.cfg.K {
		g.series.failedReads.Inc()
		return nil, nil, info,
			fmt.Errorf("%w: %d of %d shards fetched, need %d", ErrInsufficientShards, got, width, g.cfg.K)
	}

	// Rebuild the missing data shards from parity, whole shards at once;
	// the fetched ones (the stores' own buffers, ShardStore.Get) are only
	// read.
	for _, b := range have[:g.cfg.K] {
		if b == nil {
			info.Reconstructed++
		}
	}
	if info.Reconstructed > 0 {
		if err := g.code.ReconstructData(have); err != nil {
			return nil, nil, info, fmt.Errorf("service: decode: %w", err)
		}
		info.Degraded = true
		g.series.degradedReads.Inc()
		g.series.reconstructedShards.Add(int64(info.Reconstructed))
	}
	info.Size = meta.size
	return meta, have, info, nil
}

// DeleteObject forgets the object, then removes its shards (best effort
// on down OSDs); a subsequent GET is ErrNotFound.
func (g *Gateway) DeleteObject(ctx context.Context, key string) error {
	release, err := g.admit(ctx)
	if err != nil {
		return err
	}
	defer release()
	meta, err := g.remove(key)
	if err != nil {
		return err
	}
	g.deleteShards(ctx, meta, "delete")
	return nil
}

// StatusInfo is the /v1/status document.
type StatusInfo struct {
	Scheme          string  `json:"scheme"`
	Backend         string  `json:"backend"`
	ChunkSize       int     `json:"chunk_size"`
	Objects         int     `json:"objects"`
	BytesStored     int64   `json:"bytes_stored"`
	OSDs            int     `json:"osds"`
	OSDsDown        int     `json:"osds_down"`
	BreakersOpen    int     `json:"breakers_open"`
	Retries         int64   `json:"shard_retries"`
	HedgedReads     int64   `json:"hedged_reads"`
	DegradedReads   int64   `json:"degraded_reads"`
	Reconstructions int64   `json:"reconstructed_shards"`
	AdmissionDrops  int64   `json:"admission_rejected"`
	SimSeconds      float64 `json:"sim_seconds,omitempty"`

	// Tenants holds per-tenant admission and latency stats, keyed by
	// tenant identity (a configured X-Tenant value, or "other" for every
	// unconfigured one); present once any named tenant has been seen.
	Tenants map[string]TenantStatus `json:"tenants,omitempty"`
}

// Status snapshots the gateway.
func (g *Gateway) Status() StatusInfo {
	// One tracker, two names: an OSD is down in the gateway's view exactly
	// while its breaker is not closed.
	open := 0
	for i := range g.osds {
		if g.osds[i].breaker.State() != BreakerClosed {
			open++
		}
	}
	var retries int64
	for _, s := range g.series.op {
		retries += s.retries.Value()
	}
	st := StatusInfo{
		Scheme:          fmt.Sprintf("RS(%d,%d)", g.cfg.K, g.cfg.M),
		Backend:         g.cfg.Backend,
		ChunkSize:       g.cfg.ChunkSize,
		Objects:         int(g.series.objects.Value()),
		BytesStored:     g.series.bytesStored.Value(),
		OSDs:            len(g.osds),
		OSDsDown:        open,
		BreakersOpen:    open,
		Retries:         retries,
		HedgedReads:     g.series.hedgedReads.Value(),
		DegradedReads:   g.series.degradedReads.Value(),
		Reconstructions: g.series.reconstructedShards.Value(),
		AdmissionDrops:  g.series.admissionRejected.Value(),
	}
	if g.cfg.Sim != nil {
		st.SimSeconds = g.cfg.Sim.SimSeconds()
	}
	g.tenants.Range(func(k, v any) bool {
		ts := v.(*tenantSeries)
		if st.Tenants == nil {
			st.Tenants = make(map[string]TenantStatus)
		}
		st.Tenants[k.(string)] = TenantStatus{
			Admitted:   ts.admitted.Value(),
			Rejected:   ts.rejected.Value(),
			Inflight:   ts.inflight.Value(),
			Requests:   ts.seconds.Count(),
			P99Seconds: ts.seconds.Quantile(0.99),
		}
		return true
	})
	return st
}
