package core

import (
	"errors"
	"strconv"
	"testing"

	"ecarray/internal/qos"
)

// numberedRejecter refuses every request, numbering its traces 1, 2, ...
type numberedRejecter struct{ n int }

func (r *numberedRejecter) Admit(req qos.Request) qos.Decision {
	r.n++
	return qos.Decision{Trace: &qos.DecisionTrace{
		Policy: "numbered", Tenant: req.Tenant, Reason: strconv.Itoa(r.n),
	}}
}

func (r *numberedRejecter) Release(qos.Request) {}

// TestQoSRejectTraceRing: past the ring's capacity, QoSRejectTraces
// returns the newest qosRingSize rejections, oldest first, while the
// ledger still counts every one.
func TestQoSRejectTraceRing(t *testing.T) {
	cfg := smallConfig(false)
	cfg.Admission = &numberedRejecter{}
	_, c := newTestCluster(t, cfg)
	const rejections = 300
	for i := 0; i < rejections; i++ {
		if _, err := c.qosAdmit("bronze"); !errors.Is(err, ErrAdmissionRejected) {
			t.Fatalf("admit %d: err %v, want ErrAdmissionRejected", i, err)
		}
	}
	if got := c.QoSMetrics().Tenant("bronze"); got != (TenantQoS{Rejected: rejections}) {
		t.Fatalf("ledger %+v, want %d rejections", got, rejections)
	}
	traces := c.QoSRejectTraces()
	if len(traces) != qosRingSize {
		t.Fatalf("%d traces retained, want %d", len(traces), qosRingSize)
	}
	for i, tr := range traces {
		if want := strconv.Itoa(rejections - qosRingSize + 1 + i); tr.Reason != want {
			t.Fatalf("trace %d is rejection %s, want %s (newest %d, oldest first)",
				i, tr.Reason, want, qosRingSize)
		}
	}
}
