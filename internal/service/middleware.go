package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
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

// admitRequest asks pol whether a request from tenant may enter and
// serves any shaping delay the policy asks for; if ctx ends during the
// delay the slot is given back at once. On success release must be called
// exactly once when the request completes; a rejection is an
// *OverloadError carrying the policy's DecisionTrace and its
// queue-derived Retry-After hint.
func admitRequest(ctx context.Context, pol qos.AdmissionPolicy, tenant string) (release func(), throttled bool, err error) {
	req := qos.Request{Tenant: tenant, Now: time.Now().UnixNano()}
	d := pol.Admit(req)
	if !d.Admit {
		return nil, false, &OverloadError{RetryAfter: d.RetryAfter, Trace: d.Trace}
	}
	if d.Delay > 0 {
		if err := sleep(ctx, d.Delay); err != nil {
			pol.Release(req)
			return nil, false, err
		}
	}
	return func() { pol.Release(req) }, d.Delay > 0, nil
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
	raw := TenantFrom(ctx)
	id, ts := g.tenant(raw)
	if g.cfg.Admission != nil {
		id = raw // a caller-supplied policy keeps its own view of tenant names
	}
	release, throttled, err := admitRequest(ctx, g.admission, id)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			g.series.admissionRejected.Inc()
			if ts != nil {
				ts.rejected.Inc()
			}
		}
		return nil, err
	}
	if throttled {
		g.series.admissionThrottled.Inc()
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

// AdmissionMiddleware guards an HTTP handler with a qos.AdmissionPolicy:
// each request is admitted under the identity in its X-Tenant header
// (empty = anonymous), shaped by the policy's throttle delay, or refused
// with 429 and a Retry-After hint. ecstored uses it to bound per-daemon
// inflight work (-max-inflight); the gateway classifies the resulting
// 429s as transient and retries around them.
func AdmissionMiddleware(pol qos.AdmissionPolicy, next http.Handler) http.Handler {
	if pol == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, _, err := admitRequest(r.Context(), pol, r.Header.Get(TenantHeader))
		if err != nil {
			writeError(w, err)
			return
		}
		defer release()
		next.ServeHTTP(w, r)
	})
}
