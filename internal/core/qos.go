package core

import (
	"errors"
	"fmt"
	"time"

	"ecarray/internal/qos"
	"ecarray/internal/sim"
)

// Multi-tenant admission control in front of pools. Every image op may
// carry a tenant identity (Image.ReadFor/WriteFor); when Config.QoS
// names an admission policy, the pool consults it before dispatching
// the op into the cluster. A policy verdict is one of: admit (proceed
// immediately), throttle (sleep the policy's shaping delay in virtual
// time, then proceed), or reject (the op fails with
// ErrAdmissionRejected and never touches the data path). Outcomes are
// counted per tenant in QoSMetrics — deliberately OUTSIDE core.Metrics,
// whose %+v rendering is folded into golden digests — and every
// rejection's DecisionTrace is retained in a bounded ring for audit.
//
// The zero QoSConfig disables the subsystem completely: no policy
// calls, no extra events, no RNG draws — the op path is byte-identical
// to a build without this file.

// ErrAdmissionRejected marks an op refused by the admission policy
// before dispatch (the open-loop worker counts it as a job error).
var ErrAdmissionRejected = errors.New("core: admission rejected")

// QoSConfig wires an admission policy into the cluster's op path.
type QoSConfig struct {
	// Admission is consulted once per image op when non-nil; nil
	// disables admission control.
	Admission qos.AdmissionPolicy
	// TraceCap bounds the retained rejection DecisionTraces (a ring —
	// the most recent TraceCap rejections are kept). 0 defaults to 256
	// when a policy is set.
	TraceCap int
}

func (q *QoSConfig) validate() error {
	if q.TraceCap < 0 {
		return fmt.Errorf("core: negative QoS TraceCap")
	}
	if q.Admission != nil && q.TraceCap == 0 {
		q.TraceCap = 256
	}
	return nil
}

// TenantQoS is one tenant's admission outcome counters.
type TenantQoS struct {
	// Admitted counts ops that entered the cluster (the throttled ones
	// included).
	Admitted int64
	// Throttled counts admitted ops that were delayed by the policy's
	// shaping verdict; ThrottledFor accumulates the virtual time spent.
	Throttled    int64
	ThrottledFor time.Duration
	// Rejected counts ops refused outright (ErrAdmissionRejected).
	Rejected int64
}

// Sub returns the per-counter delta t - prev.
func (t TenantQoS) Sub(prev TenantQoS) TenantQoS {
	return TenantQoS{
		Admitted:     t.Admitted - prev.Admitted,
		Throttled:    t.Throttled - prev.Throttled,
		ThrottledFor: t.ThrottledFor - prev.ThrottledFor,
		Rejected:     t.Rejected - prev.Rejected,
	}
}

// QoSMetrics is the per-tenant admission ledger. The map renders with
// sorted keys under %+v, so snapshots fold deterministically into
// digests.
type QoSMetrics struct {
	Tenants map[string]TenantQoS
}

// Tenant returns one tenant's counters (zero value if unseen).
func (m QoSMetrics) Tenant(name string) TenantQoS { return m.Tenants[name] }

// Total sums every tenant's counters.
func (m QoSMetrics) Total() TenantQoS {
	var out TenantQoS
	for _, t := range m.Tenants {
		out.Admitted += t.Admitted
		out.Throttled += t.Throttled
		out.ThrottledFor += t.ThrottledFor
		out.Rejected += t.Rejected
	}
	return out
}

// Sub returns the per-tenant delta m - prev (tenants only present in
// prev keep a zero entry out of the result).
func (m QoSMetrics) Sub(prev QoSMetrics) QoSMetrics {
	out := QoSMetrics{Tenants: map[string]TenantQoS{}}
	for name, t := range m.Tenants {
		out.Tenants[name] = t.Sub(prev.Tenants[name])
	}
	return out
}

func (m QoSMetrics) clone() QoSMetrics {
	out := QoSMetrics{Tenants: make(map[string]TenantQoS, len(m.Tenants))}
	for name, t := range m.Tenants {
		out.Tenants[name] = t
	}
	return out
}

// QoSMetrics snapshots the cluster's cumulative per-tenant admission
// counters (independent of Metrics and its reset window).
func (c *Cluster) QoSMetrics() QoSMetrics { return c.qosM.clone() }

// QoSRejectTraces returns the retained rejection decision traces,
// oldest first.
func (c *Cluster) QoSRejectTraces() []qos.DecisionTrace {
	out := make([]qos.DecisionTrace, 0, len(c.qosTraces))
	// The ring wraps at TraceCap; qosTraceNext is the oldest slot once
	// it has wrapped.
	if len(c.qosTraces) == c.cfg.QoS.TraceCap {
		out = append(out, c.qosTraces[c.qosTraceNext:]...)
		out = append(out, c.qosTraces[:c.qosTraceNext]...)
		return out
	}
	return append(out, c.qosTraces...)
}

// noteReject records one rejection's counters and trace.
func (c *Cluster) noteReject(tenant string, trace *qos.DecisionTrace) {
	t := c.qosM.Tenants[tenant]
	t.Rejected++
	c.qosM.Tenants[tenant] = t
	if trace == nil || c.cfg.QoS.TraceCap <= 0 {
		return
	}
	if len(c.qosTraces) < c.cfg.QoS.TraceCap {
		c.qosTraces = append(c.qosTraces, *trace)
		return
	}
	c.qosTraces[c.qosTraceNext] = *trace
	c.qosTraceNext = (c.qosTraceNext + 1) % c.cfg.QoS.TraceCap
}

// qosAdmit runs one op through the admission policy. It returns a
// release func (nil when no policy is configured) to call when the op
// completes, or ErrAdmissionRejected wrapping the policy's reason. A
// throttle verdict sleeps the shaping delay here, in virtual time, so
// the op's measured latency includes its queueing.
func (c *Cluster) qosAdmit(p *sim.Proc, tenant string) (func(), error) {
	pol := c.cfg.QoS.Admission
	if pol == nil {
		return nil, nil
	}
	if c.qosM.Tenants == nil {
		c.qosM.Tenants = map[string]TenantQoS{}
	}
	req := qos.Request{Tenant: tenant, Now: int64(c.e.Now())}
	d := pol.Admit(req)
	if !d.Admit {
		c.noteReject(tenant, d.Trace)
		reason := "policy refused"
		if d.Trace != nil {
			reason = d.Trace.Reason
		}
		return nil, fmt.Errorf("%w: tenant %q: %s", ErrAdmissionRejected, tenant, reason)
	}
	t := c.qosM.Tenants[tenant]
	t.Admitted++
	if d.Delay > 0 {
		t.Throttled++
		t.ThrottledFor += d.Delay
		c.qosM.Tenants[tenant] = t
		p.Sleep(d.Delay)
	} else {
		c.qosM.Tenants[tenant] = t
	}
	return func() { pol.Release(req) }, nil
}
