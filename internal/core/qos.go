package core

import (
	"errors"
	"fmt"

	"ecarray/internal/qos"
)

// Multi-tenant admission control in front of pools. Every image op may
// carry a tenant identity (Image.ReadFor/WriteFor); when
// Config.Admission names a policy, the pool consults it before
// dispatching the op into the cluster. The policy admits the op (it
// proceeds at once) or rejects it (the op fails with
// ErrAdmissionRejected and never touches the data path). Outcomes are
// counted per tenant in QoSMetrics — deliberately OUTSIDE core.Metrics,
// whose %+v rendering is folded into golden digests — and the newest
// qosRingSize rejections' DecisionTraces are retained in a ring for
// audit.
//
// A nil Config.Admission disables the subsystem completely: no policy
// calls, no extra events, no RNG draws — the op path is byte-identical
// to a build without this file.

// ErrAdmissionRejected marks an op refused by the admission policy
// before dispatch (the open-loop worker counts it as a job error).
var ErrAdmissionRejected = errors.New("core: admission rejected")

// qosRingSize bounds the retained rejection DecisionTraces: the ring
// keeps the most recent qosRingSize rejections.
const qosRingSize = 256

// TenantQoS is one tenant's admission outcome counters.
type TenantQoS struct {
	// Admitted counts ops that entered the cluster.
	Admitted int64
	// Rejected counts ops refused outright (ErrAdmissionRejected).
	Rejected int64
}

// Sub returns the per-counter delta t - prev.
func (t TenantQoS) Sub(prev TenantQoS) TenantQoS {
	return TenantQoS{
		Admitted: t.Admitted - prev.Admitted,
		Rejected: t.Rejected - prev.Rejected,
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
	// The ring wraps at qosRingSize; qosTraceNext is the oldest slot
	// once it has wrapped.
	if len(c.qosTraces) == qosRingSize {
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
	if trace == nil {
		return
	}
	if len(c.qosTraces) < qosRingSize {
		c.qosTraces = append(c.qosTraces, *trace)
		return
	}
	c.qosTraces[c.qosTraceNext] = *trace
	c.qosTraceNext = (c.qosTraceNext + 1) % qosRingSize
}

// qosAdmit runs one op through the admission policy. It returns a
// release func (nil when no policy is configured) to call when the op
// completes, or ErrAdmissionRejected wrapping the policy's reason.
func (c *Cluster) qosAdmit(tenant string) (func(), error) {
	pol := c.cfg.Admission
	if pol == nil {
		return nil, nil
	}
	if c.qosM.Tenants == nil {
		c.qosM.Tenants = map[string]TenantQoS{}
	}
	req := qos.Request{Tenant: tenant}
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
	c.qosM.Tenants[tenant] = t
	return func() { pol.Release(req) }, nil
}
