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
// An AdmissionPolicy admits a request or rejects it. Implementations:
// Unlimited (admit everything), MaxInflight (the gateway's classic
// bounded-concurrency gate), and WeightedFair (MaxInflight partitioned
// across tenants in proportion to configured weights — strict shares, so
// a heavy tenant cannot starve a light one).
//
// Every rejection carries a DecisionTrace naming the policy, the inputs
// it saw, and the counterfactual candidates with the reason each lost —
// so "why was this request 429'd" is answerable from the trace alone, in
// the style of the inference-sim admission pipeline. An admit builds no
// trace, so the admitted path allocates nothing.
//
// Determinism: policies use only their own internal counters — no clock
// reads, no RNG — so the simulator gets byte-identical decisions at any
// host parallelism. All policies are safe for concurrent use (the
// gateway calls them from many request goroutines); the mutexes are
// uncontended no-ops in the single-batoned simulator.
package qos

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Request is one admission question: the requesting tenant's identity.
type Request struct {
	Tenant string
}

// Decision is an admission verdict. Admit=false is a rejection:
// RetryAfter is the policy's estimate of when capacity will exist,
// derived from queue depth rather than a constant, and Trace is the
// audit record. An admit carries neither.
type Decision struct {
	Admit      bool
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

// DecisionTrace is the audit record of one rejection: who asked, why
// the policy refused, and the counterfactual candidates it weighed.
type DecisionTrace struct {
	Policy     string
	Tenant     string
	Reason     string
	RetryAfter time.Duration
	Candidates []Candidate
}

// AdmissionPolicy decides whether requests enter the system. Admit is
// called once per request; Release must be called exactly once for
// every admitted request when its work completes (policies that track
// in-flight occupancy depend on it; stateless policies ignore it).
type AdmissionPolicy interface {
	Admit(Request) Decision
	Release(Request)
}

// ---------------------------------------------------------------------
// Unlimited

// Unlimited admits everything immediately. It is the explicit "no QoS"
// policy: useful as the baseline arm of overload experiments.
type Unlimited struct{}

// Admit implements AdmissionPolicy: always yes.
func (Unlimited) Admit(Request) Decision { return Decision{Admit: true} }

// Release implements AdmissionPolicy.
func (Unlimited) Release(Request) {}

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

// Admit implements AdmissionPolicy.
func (m *MaxInflight) Admit(r Request) Decision {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inflight < m.limit {
		m.inflight++
		return Decision{Admit: true}
	}
	m.pressure++
	retry := time.Duration(1+min((m.pressure-1)/m.limit, 7)) * time.Second
	reason := fmt.Sprintf("at limit %d with %d rejections pending", m.limit, m.pressure)
	return Decision{RetryAfter: retry, Trace: &DecisionTrace{
		Policy: "max-inflight", Tenant: r.Tenant, Reason: reason, RetryAfter: retry,
		Candidates: []Candidate{
			{ID: "admit", Score: float64(m.limit - m.inflight), Reason: "no in-flight slot free"},
			{ID: "reject", Chosen: true, Reason: reason},
		},
	}}
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
	shares   map[string]int
	sumW     float64
	inflight map[string]int
}

// NewWeightedFair builds the weighted-fair policy over a total
// concurrency limit and per-tenant weights (non-positive means 1).
// Tenants absent from the map get a weight-1 share against the
// configured total. limit <= 0 means 1.
func NewWeightedFair(limit int, weights map[string]float64) *WeightedFair {
	if limit <= 0 {
		limit = 1
	}
	w := &WeightedFair{
		limit:    limit,
		shares:   map[string]int{},
		inflight: map[string]int{},
	}
	for _, wt := range weights {
		w.sumW += positive(wt)
	}
	if w.sumW <= 0 {
		w.sumW = 1
	}
	for name, wt := range weights {
		w.shares[name] = shareOf(limit, positive(wt), w.sumW)
	}
	return w
}

func positive(weight float64) float64 {
	if weight <= 0 {
		return 1
	}
	return weight
}

func shareOf(limit int, weight, sumW float64) int {
	s := int(math.Floor(float64(limit) * weight / sumW))
	if s < 1 {
		s = 1
	}
	return s
}

// share returns the tenant's in-flight allowance.
func (w *WeightedFair) share(tenant string) int {
	if s, ok := w.shares[tenant]; ok {
		return s
	}
	// Unknown tenants ride on weight 1 against the configured total, so
	// they can't crowd out configured tenants.
	return shareOf(w.limit, 1, w.sumW+1)
}

// Admit implements AdmissionPolicy.
func (w *WeightedFair) Admit(r Request) Decision {
	w.mu.Lock()
	defer w.mu.Unlock()
	share := w.share(r.Tenant)
	cur := w.inflight[r.Tenant]
	if cur < share {
		w.inflight[r.Tenant] = cur + 1
		return Decision{Admit: true}
	}
	// Reject with a drain estimate: the deeper past its share the
	// tenant is queued, the longer the suggested backoff.
	retry := time.Duration(1+min((cur-share)/share, 7)) * time.Second
	trace := &DecisionTrace{
		Policy: "weighted-fair", Tenant: r.Tenant, RetryAfter: retry,
		Reason: fmt.Sprintf("tenant share %d exhausted (%d in flight)", share, cur),
	}
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
