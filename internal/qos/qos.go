// Package qos is the multi-tenant admission-control policy layer shared
// by both front doors of the system: the simulator's open-loop workload
// path (internal/core consults a policy before dispatching each op) and
// the HTTP gateway (internal/service runs its bounded-in-flight gate as
// one implementation of the same interface). Neither front door routes —
// placement is CRUSH's — so there is no routing policy here.
//
// The paper (Koh et al., IISWC 2017) measures how online erasure coding
// inflates latency and CPU against replication; this package asks the
// production follow-up: at 120% of capacity, who absorbs the inflation?
// Policies make that an explicit, auditable decision.
//
// An AdmissionPolicy decides whether one request enters the system now,
// after a delay (shaping), or not at all. Implementations: Unlimited
// (admit everything), TokenBucket (per-tenant rate+burst with a bounded
// shaping window), MaxInflight (the gateway's classic bounded-concurrency
// gate), and WeightedFair (MaxInflight partitioned across tenants in
// proportion to configured weights — strict shares, so a heavy tenant
// cannot starve a light one).
//
// Every decision carries a DecisionTrace naming the policy, the inputs
// it saw, and the rejected counterfactual candidates with the reason
// each lost — so "why was this request 429'd" is answerable from the
// trace alone, in the style of the inference-sim admission pipeline.
//
// Determinism: policies use only the caller-supplied Request.Now clock
// and their own internal counters — no wall-clock reads, no RNG — so
// the simulator gets byte-identical decisions at any host parallelism.
// All policies are safe for concurrent use (the gateway calls them from
// many request goroutines); the mutexes are uncontended no-ops in the
// single-batoned simulator.
package qos

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Request is one admission question: tenant identity, the cost of the
// work (ops or tokens; callers use 1 per object op), and the caller's
// clock in nanoseconds. The simulator passes virtual time, the gateway
// passes time.Now().UnixNano(); policies only ever difference Now
// values from the same caller, so the epochs never mix.
type Request struct {
	Tenant string
	Cost   int64
	Now    int64
}

// cost normalizes Cost: any non-positive value charges 1.
func (r Request) cost() float64 {
	if r.Cost <= 0 {
		return 1
	}
	return float64(r.Cost)
}

// Decision is an admission verdict. Admit=true with Delay=0 is an
// immediate admit; Admit=true with Delay>0 means "admit after shaping
// for Delay" (the caller sleeps, then proceeds — no second Admit call);
// Admit=false is a rejection and RetryAfter is the policy's estimate of
// when capacity will exist, derived from queue depth or token refill
// time rather than a constant.
type Decision struct {
	Admit      bool
	Delay      time.Duration
	RetryAfter time.Duration
	Trace      *DecisionTrace
}

// Candidate is one alternative a policy weighed — an admission outcome —
// kept in the trace whether or not it won.
type Candidate struct {
	ID     string
	Score  float64
	Chosen bool
	Reason string
}

// DecisionTrace is the audit record of one policy decision: who asked,
// what the policy chose, and the counterfactual candidates it rejected.
type DecisionTrace struct {
	Policy     string
	Tenant     string
	Now        int64
	Admitted   bool
	Reason     string
	RetryAfter time.Duration
	Candidates []Candidate
}

// String renders the trace on one line for logs and notes.
func (t *DecisionTrace) String() string {
	verdict := "rejected"
	if t.Admitted {
		verdict = "admitted"
	}
	return fmt.Sprintf("%s: tenant %q %s: %s", t.Policy, t.Tenant, verdict, t.Reason)
}

// AdmissionPolicy decides whether requests enter the system. Admit is
// called once per request; Release must be called exactly once for
// every admitted request when its work completes (policies that track
// in-flight occupancy depend on it; stateless policies ignore it).
type AdmissionPolicy interface {
	Name() string
	Admit(Request) Decision
	Release(Request)
}

// TenantConfig parameterizes one tenant under a policy. Zero values
// fall back to policy defaults.
type TenantConfig struct {
	// Weight is the tenant's share weight under WeightedFair.
	// Non-positive means 1.
	Weight float64
	// Rate is the TokenBucket refill in tokens (ops) per second.
	// Non-positive means the tenant is not rate-limited.
	Rate float64
	// Burst is the TokenBucket capacity; non-positive means Rate
	// (a one-second burst).
	Burst float64
	// MaxWait is the TokenBucket shaping window: a request that cannot
	// be served from the bucket but would become serviceable within
	// MaxWait is admitted with a Delay instead of rejected.
	MaxWait time.Duration
}

func (c TenantConfig) weight() float64 {
	if c.Weight <= 0 {
		return 1
	}
	return c.Weight
}

// ---------------------------------------------------------------------
// Unlimited

// Unlimited admits everything immediately. It is the explicit "no QoS"
// policy: useful as the baseline arm of overload experiments.
type Unlimited struct{}

// Name implements AdmissionPolicy.
func (Unlimited) Name() string { return "unlimited" }

// Admit implements AdmissionPolicy: always yes.
func (Unlimited) Admit(r Request) Decision {
	return Decision{Admit: true, Trace: &DecisionTrace{
		Policy: "unlimited", Tenant: r.Tenant, Now: r.Now,
		Admitted: true, Reason: "no admission control",
	}}
}

// Release implements AdmissionPolicy.
func (Unlimited) Release(Request) {}

// ---------------------------------------------------------------------
// TokenBucket

// TokenBucket rate-limits each tenant with a classic token bucket:
// Rate tokens/second refill, Burst capacity, and a MaxWait shaping
// window within which over-rate requests are delayed (in arrival
// order — the bucket balance goes negative, so each subsequent
// over-rate request queues behind the previous one) rather than
// rejected. Requests beyond the window are rejected with RetryAfter
// equal to the actual refill time needed.
type TokenBucket struct {
	mu      sync.Mutex
	def     TenantConfig
	tenants map[string]TenantConfig
	state   map[string]*bucketState
}

type bucketState struct {
	tokens float64
	last   int64 // Request.Now of the last refill
}

// NewTokenBucket builds a per-tenant token-bucket policy. def applies
// to tenants absent from the tenants map; a def.Rate <= 0 leaves
// unknown tenants unlimited.
func NewTokenBucket(def TenantConfig, tenants map[string]TenantConfig) *TokenBucket {
	tb := &TokenBucket{def: def, tenants: map[string]TenantConfig{}, state: map[string]*bucketState{}}
	for name, cfg := range tenants {
		tb.tenants[name] = cfg
	}
	return tb
}

// Name implements AdmissionPolicy.
func (tb *TokenBucket) Name() string { return "token-bucket" }

// Admit implements AdmissionPolicy.
func (tb *TokenBucket) Admit(r Request) Decision {
	tb.mu.Lock()
	defer tb.mu.Unlock()

	cfg, ok := tb.tenants[r.Tenant]
	if !ok {
		cfg = tb.def
	}
	trace := &DecisionTrace{Policy: "token-bucket", Tenant: r.Tenant, Now: r.Now}
	if cfg.Rate <= 0 {
		trace.Admitted = true
		trace.Reason = "tenant not rate-limited"
		return Decision{Admit: true, Trace: trace}
	}
	burst := cfg.Burst
	if burst <= 0 {
		burst = cfg.Rate
	}
	st, ok := tb.state[r.Tenant]
	if !ok {
		st = &bucketState{tokens: burst, last: r.Now}
		tb.state[r.Tenant] = st
	}
	// Refill for the elapsed caller time, capped at burst.
	if dt := r.Now - st.last; dt > 0 {
		st.tokens = math.Min(burst, st.tokens+float64(dt)/1e9*cfg.Rate)
	}
	st.last = r.Now

	cost := r.cost()
	if st.tokens >= cost {
		st.tokens -= cost
		trace.Admitted = true
		trace.Reason = fmt.Sprintf("%.1f tokens available for cost %.0f", st.tokens+cost, cost)
		trace.Candidates = []Candidate{
			{ID: "admit", Score: st.tokens + cost, Chosen: true, Reason: trace.Reason},
		}
		return Decision{Admit: true, Trace: trace}
	}
	// Not enough tokens: how long until there are?
	wait := time.Duration((cost - st.tokens) / cfg.Rate * 1e9)
	if wait <= cfg.MaxWait {
		// Shape: charge now (balance goes negative, queueing subsequent
		// arrivals behind this one) and admit after the refill interval.
		st.tokens -= cost
		trace.Admitted = true
		trace.Reason = fmt.Sprintf("throttled %v awaiting refill", wait)
		trace.Candidates = []Candidate{
			{ID: "admit", Score: st.tokens + cost, Reason: "insufficient tokens"},
			{ID: "throttle", Score: wait.Seconds(), Chosen: true, Reason: trace.Reason},
			{ID: "reject", Reason: fmt.Sprintf("wait %v within MaxWait %v", wait, cfg.MaxWait)},
		}
		return Decision{Admit: true, Delay: wait, Trace: trace}
	}
	trace.Reason = fmt.Sprintf("refill of %.1f tokens needs %v, over MaxWait %v", cost-st.tokens, wait, cfg.MaxWait)
	trace.RetryAfter = wait
	trace.Candidates = []Candidate{
		{ID: "admit", Score: st.tokens, Reason: "insufficient tokens"},
		{ID: "throttle", Score: wait.Seconds(), Reason: "wait exceeds MaxWait"},
		{ID: "reject", Chosen: true, Reason: trace.Reason},
	}
	return Decision{RetryAfter: wait, Trace: trace}
}

// Release implements AdmissionPolicy; token buckets track rate, not
// occupancy, so it is a no-op.
func (tb *TokenBucket) Release(Request) {}

// ---------------------------------------------------------------------
// MaxInflight

// MaxInflight is the gateway's classic admission gate as a policy: at
// most limit requests in flight, immediate rejection beyond that. The
// admit/reject behavior is identical to the historical channel-based
// gate; what's new is the RetryAfter hint, derived from rejection
// pressure (rejections since the last release) instead of a constant —
// an idle-edge rejection still says 1s, a deeply overloaded gate says
// proportionally more.
type MaxInflight struct {
	mu       sync.Mutex
	limit    int
	inflight int
	// pressure counts rejections since the last release: a live proxy
	// for how many callers are already waiting to retry.
	pressure int
}

// NewMaxInflight builds the bounded-concurrency policy. limit <= 0
// means 1.
func NewMaxInflight(limit int) *MaxInflight {
	if limit <= 0 {
		limit = 1
	}
	return &MaxInflight{limit: limit}
}

// Name implements AdmissionPolicy.
func (m *MaxInflight) Name() string { return "max-inflight" }

// Admit implements AdmissionPolicy.
func (m *MaxInflight) Admit(r Request) Decision {
	m.mu.Lock()
	defer m.mu.Unlock()
	trace := &DecisionTrace{Policy: "max-inflight", Tenant: r.Tenant, Now: r.Now}
	if m.inflight < m.limit {
		m.inflight++
		trace.Admitted = true
		trace.Reason = fmt.Sprintf("%d/%d in flight", m.inflight, m.limit)
		return Decision{Admit: true, Trace: trace}
	}
	m.pressure++
	retry := time.Duration(1+min((m.pressure-1)/m.limit, 7)) * time.Second
	trace.Reason = fmt.Sprintf("at limit %d with %d rejections pending", m.limit, m.pressure)
	trace.RetryAfter = retry
	trace.Candidates = []Candidate{
		{ID: "admit", Score: float64(m.limit - m.inflight), Reason: "no in-flight slot free"},
		{ID: "reject", Chosen: true, Reason: trace.Reason},
	}
	return Decision{RetryAfter: retry, Trace: trace}
}

// Release implements AdmissionPolicy.
func (m *MaxInflight) Release(Request) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inflight > 0 {
		m.inflight--
	}
	m.pressure = 0
}

// ---------------------------------------------------------------------
// WeightedFair

// WeightedFair partitions a MaxInflight-style concurrency limit across
// tenants in proportion to their weights: tenant i holds at most
// share_i = max(1, floor(limit * w_i / Σw)) requests in flight. Shares
// are strict (no borrowing of idle capacity), which is what makes the
// isolation guarantee unconditional: a tenant flooding the front door
// can exhaust only its own share, and under saturation each tenant's
// admitted concurrency — hence goodput — tracks its weight.
type WeightedFair struct {
	mu       sync.Mutex
	limit    int
	def      TenantConfig
	tenants  map[string]TenantConfig
	shares   map[string]int
	sumW     float64
	inflight map[string]int
}

// NewWeightedFair builds the weighted-fair policy over a total
// concurrency limit. Tenants absent from the map get a share computed
// from def's weight against the configured total. limit <= 0 means 1.
func NewWeightedFair(limit int, def TenantConfig, tenants map[string]TenantConfig) *WeightedFair {
	if limit <= 0 {
		limit = 1
	}
	w := &WeightedFair{
		limit:    limit,
		def:      def,
		tenants:  map[string]TenantConfig{},
		shares:   map[string]int{},
		inflight: map[string]int{},
	}
	for name, cfg := range tenants {
		w.tenants[name] = cfg
		w.sumW += cfg.weight()
	}
	if w.sumW <= 0 {
		w.sumW = def.weight()
	}
	for name, cfg := range w.tenants {
		w.shares[name] = shareOf(limit, cfg.weight(), w.sumW)
	}
	return w
}

func shareOf(limit int, weight, sumW float64) int {
	s := int(math.Floor(float64(limit) * weight / sumW))
	if s < 1 {
		s = 1
	}
	return s
}

// Name implements AdmissionPolicy.
func (w *WeightedFair) Name() string { return "weighted-fair" }

// share returns the tenant's in-flight allowance.
func (w *WeightedFair) share(tenant string) int {
	if s, ok := w.shares[tenant]; ok {
		return s
	}
	// Unknown tenants ride on the default weight against the configured
	// total, so they can't crowd out configured tenants.
	return shareOf(w.limit, w.def.weight(), w.sumW+w.def.weight())
}

// Admit implements AdmissionPolicy.
func (w *WeightedFair) Admit(r Request) Decision {
	w.mu.Lock()
	defer w.mu.Unlock()
	trace := &DecisionTrace{Policy: "weighted-fair", Tenant: r.Tenant, Now: r.Now}
	share := w.share(r.Tenant)
	cur := w.inflight[r.Tenant]
	if cur < share {
		w.inflight[r.Tenant] = cur + 1
		trace.Admitted = true
		trace.Reason = fmt.Sprintf("%d/%d of tenant share", cur+1, share)
		return Decision{Admit: true, Trace: trace}
	}
	// Reject with a drain estimate: the deeper past its share the
	// tenant is queued, the longer the suggested backoff.
	retry := time.Duration(1+min((cur-share)/share, 7)) * time.Second
	trace.Reason = fmt.Sprintf("tenant share %d exhausted (%d in flight)", share, cur)
	trace.RetryAfter = retry
	// Counterfactuals: every configured tenant's occupancy, so the
	// trace shows who holds the capacity this request didn't get.
	names := make([]string, 0, len(w.shares))
	for name := range w.shares {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := w.shares[name]
		trace.Candidates = append(trace.Candidates, Candidate{
			ID:     name,
			Score:  float64(w.inflight[name]) / float64(s),
			Chosen: name == r.Tenant,
			Reason: fmt.Sprintf("%d/%d in flight", w.inflight[name], s),
		})
	}
	return Decision{RetryAfter: retry, Trace: trace}
}

// Release implements AdmissionPolicy.
func (w *WeightedFair) Release(r Request) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.inflight[r.Tenant] > 0 {
		w.inflight[r.Tenant]--
	}
}
