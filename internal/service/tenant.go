package service

import (
	"context"
	"fmt"
)

// TenantHeader is the HTTP header carrying the requesting tenant's
// identity on object and shard requests.
const TenantHeader = "X-Tenant"

// tenantKey is the context key carrying the requesting tenant's name.
type tenantKey struct{}

// WithTenant attaches a tenant identity (the X-Tenant header value) to
// a request context; the gateway's admission policy keys per-tenant
// limits and metrics off it. Empty names are the anonymous tenant.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantFrom extracts the tenant attached by WithTenant ("" if none).
func TenantFrom(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}

// otherTenant is the one identity every X-Tenant value outside
// GatewayConfig.Tenants folds into. The header is caller-controlled, so
// without the fold each distinct value would mint its own series, status
// row and weighted-fair share.
const otherTenant = "other"

// tenantSeries is one tenant identity's series, resolved on its first
// request.
type tenantSeries struct {
	admitted, rejected *Counter
	inflight           *Gauge
	seconds            *Histogram          // ecgate_tenant_request_seconds{tenant}
	requests           map[string]*Counter // ecgate_tenant_requests_total{tenant,op}, by op
}

// tenant maps an X-Tenant value onto its identity — itself if configured,
// otherTenant if not, "" (anonymous, no per-tenant series) if empty — and
// that identity's series.
func (g *Gateway) tenant(name string) (string, *tenantSeries) {
	if name == "" {
		return "", nil
	}
	if _, ok := g.cfg.Tenants[name]; !ok {
		name = otherTenant
	}
	if ts, ok := g.tenants.Load(name); ok {
		return name, ts.(*tenantSeries)
	}
	ts := &tenantSeries{
		admitted: g.reg.Counter(fmt.Sprintf("ecgate_tenant_admitted_total{tenant=%q}", name)),
		rejected: g.reg.Counter(fmt.Sprintf("ecgate_tenant_rejected_total{tenant=%q}", name)),
		inflight: g.reg.Gauge(fmt.Sprintf("ecgate_tenant_inflight{tenant=%q}", name)),
		seconds:  g.reg.Histogram(fmt.Sprintf("ecgate_tenant_request_seconds{tenant=%q}", name)),
		requests: map[string]*Counter{},
	}
	for _, op := range shardOps {
		ts.requests[op] = g.reg.Counter(fmt.Sprintf("ecgate_tenant_requests_total{tenant=%q,op=%q}", name, op))
	}
	// Racing first requests build equal bundles (the registry hands out one
	// series per name); whichever is stored, every caller counts the same.
	actual, _ := g.tenants.LoadOrStore(name, ts)
	return name, actual.(*tenantSeries)
}

// TenantStatus is one tenant's entry in /v1/status.
type TenantStatus struct {
	Admitted   int64   `json:"admitted"`
	Rejected   int64   `json:"rejected"`
	Inflight   int64   `json:"inflight"`
	Requests   int64   `json:"requests"`
	P99Seconds float64 `json:"p99_seconds"` // bucket upper bound (conservative)
}
