package service

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"ecarray/internal/qos"
)

// OverloadError is an admission rejection with the policy's decision
// attached: a Retry-After derived from live queue depth (not a
// constant), and the DecisionTrace naming the rejected
// counterfactual candidates. errors.Is(err, ErrOverloaded) matches it,
// so every existing 429 path is unchanged.
type OverloadError struct {
	RetryAfter time.Duration
	Trace      *qos.DecisionTrace
}

// Error implements error.
func (e *OverloadError) Error() string {
	if e.Trace != nil {
		return fmt.Sprintf("%v (%s)", ErrOverloaded, e.Trace.Reason)
	}
	return ErrOverloaded.Error()
}

// Is makes errors.Is(err, ErrOverloaded) true for admission rejections.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// admitRequest asks pol whether a request from tenant may enter. On
// success release must be called exactly once when the request
// completes; a rejection is an *OverloadError carrying the policy's
// DecisionTrace and its queue-derived Retry-After hint.
func admitRequest(pol qos.AdmissionPolicy, tenant string) (release func(), err error) {
	req := qos.Request{Tenant: tenant}
	d := pol.Admit(req)
	if !d.Admit {
		return nil, &OverloadError{RetryAfter: d.RetryAfter, Trace: d.Trace}
	}
	return func() { pol.Release(req) }, nil
}

// retryAfterSeconds renders a Retry-After hint in whole seconds, rounded
// up, never below 1 (a rejection with no hint says "1").
func retryAfterSeconds(d time.Duration) string {
	if d <= time.Second {
		return "1"
	}
	return strconv.Itoa(int((d + time.Second - 1) / time.Second))
}

// admit passes the request through the admission gate (admitRequest) and
// keeps the admission series. On success the returned func must be called
// exactly once when the request completes.
func (g *Gateway) admit(ctx context.Context) (func(), error) {
	id, ts := g.tenant(TenantFrom(ctx))
	release, err := admitRequest(g.admission, id)
	if err != nil {
		g.series.admissionRejected.Inc()
		if ts != nil {
			ts.rejected.Inc()
		}
		return nil, err
	}
	g.series.inflight.Add(1)
	if ts != nil {
		ts.admitted.Inc()
		ts.inflight.Add(1)
	}
	return func() {
		release()
		g.series.inflight.Add(-1)
		if ts != nil {
			ts.inflight.Add(-1)
		}
	}, nil
}
