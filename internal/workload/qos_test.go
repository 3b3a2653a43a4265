package workload

import (
	"fmt"
	"math"
	"testing"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/qos"
)

// qosOverloadReport runs the 2-tenant overload scenario — gold and bronze
// open-loop jobs pushing past their weighted-fair shares on EC and
// replicated pools — and returns the captured QoSReport plus the result.
func qosOverloadReport(t *testing.T, codecConc int) (*QoSReport, *ScenarioResult, *core.Cluster) {
	t.Helper()
	c, imgEC, imgRep := scenarioClusterCfg(t, true, codecConc, func(cfg *core.Config) {
		cfg.Admission = qos.NewWeightedFair(3, map[string]float64{"gold": 2, "bronze": 1})
	})
	imgEC.Prefill()
	imgRep.Prefill()
	var qr QoSReport
	res, err := NewScenario(c).
		AddJob(imgEC, Job{
			Name: "gold-read", Tenant: "gold", Op: Read, Pattern: Random,
			BlockSize: 8 << 10, Rate: 30000, Duration: 300 * time.Millisecond, Seed: 41,
		}).
		AddJob(imgRep, Job{
			Name: "bronze-read", Tenant: "bronze", Op: Read, Pattern: Random,
			BlockSize: 8 << 10, Rate: 15000, Duration: 300 * time.Millisecond, Seed: 42,
		}).
		Phase("ramp", 100*time.Millisecond).
		Phase("overload", 200*time.Millisecond).
		CaptureQoS(&qr).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	return &qr, res, c
}

// TestQoSOverloadGoldenDeterminism pins run-to-run determinism of the
// per-tenant admission ledger: the QoSReport of the 2-tenant overload
// scenario must be byte-identical at codec concurrency 1 and 4 (the
// codec knob changes wall-clock time only, never simulated behaviour).
func TestQoSOverloadGoldenDeterminism(t *testing.T) {
	digest := func(conc int) string {
		qr, res, _ := qosOverloadReport(t, conc)
		sum := uint64(14695981039346656037)
		fold := func(s string) {
			for i := 0; i < len(s); i++ {
				sum ^= uint64(s[i])
				sum *= 1099511628211
			}
		}
		fold(fmt.Sprintf("%+v", *qr))
		fold(fmt.Sprintf("%+v", res))
		return fmt.Sprintf("%016x", sum)
	}
	d1 := digest(1)
	d4 := digest(4)
	if d1 != d4 {
		t.Errorf("QoS overload digest differs across codec concurrency: conc1=%s conc4=%s", d1, d4)
	}
}

// TestQoSOverloadReportShape checks the captured ledger itself: both
// tenants saw admissions, load past each share produced rejections,
// phase deltas sum to the total, rejected ops surfaced as
// job errors, and every rejection retained an auditable DecisionTrace.
func TestQoSOverloadReportShape(t *testing.T) {
	qr, res, c := qosOverloadReport(t, 1)
	if len(qr.Phases) != len(res.Phases) {
		t.Fatalf("QoSReport has %d phases, scenario has %d", len(qr.Phases), len(res.Phases))
	}
	for _, tenant := range []string{"gold", "bronze"} {
		tq := qr.Total.Tenant(tenant)
		if tq.Admitted == 0 {
			t.Errorf("tenant %s: no admitted ops", tenant)
		}
		if tq.Rejected == 0 {
			t.Errorf("tenant %s: load past its share produced no rejections: %+v", tenant, tq)
		}
		var phaseSum core.TenantQoS
		for _, ph := range qr.Phases {
			p := ph.Tenant(tenant)
			phaseSum.Admitted += p.Admitted
			phaseSum.Rejected += p.Rejected
		}
		if phaseSum != tq {
			t.Errorf("tenant %s: phase deltas %+v do not sum to total %+v", tenant, phaseSum, tq)
		}
	}
	rejected := qr.Total.Total().Rejected
	var errs int64
	for i := range res.Jobs {
		errs += res.Jobs[i].Result.Errors
	}
	if rejected > 0 && errs == 0 {
		t.Errorf("%d rejections but no job errors", rejected)
	}
	traces := c.QoSRejectTraces()
	if rejected > 0 && len(traces) == 0 {
		t.Fatalf("%d rejections retained no decision traces", rejected)
	}
	for i, tr := range traces {
		if tr.Policy == "" || tr.Reason == "" {
			t.Fatalf("trace %d is not an auditable rejection: %+v", i, tr)
		}
	}
}

// TestQoSWeightedFairShareAcceptance is the fairness acceptance check:
// under saturating load from two tenants with 2:1 weights on a shared
// weighted-fair admission policy, each tenant's share of admitted ops
// must land within 10% (relative) of its configured weight fraction.
func TestQoSWeightedFairShareAcceptance(t *testing.T) {
	c, _, imgRep := scenarioClusterCfg(t, false, 1, func(cfg *core.Config) {
		cfg.Admission = qos.NewWeightedFair(12, map[string]float64{"gold": 2, "bronze": 1})
	})
	imgRep.Prefill()
	var qr QoSReport
	_, err := NewScenario(c).
		AddJob(imgRep, Job{
			Name: "gold-flood", Tenant: "gold", Op: Read, Pattern: Random,
			BlockSize: 4 << 10, QueueDepth: 16, Duration: 400 * time.Millisecond, Seed: 51,
		}).
		AddJob(imgRep, Job{
			Name: "bronze-flood", Tenant: "bronze", Op: Read, Pattern: Random,
			BlockSize: 4 << 10, QueueDepth: 16, Duration: 400 * time.Millisecond, Seed: 52,
		}).
		CaptureQoS(&qr).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	gold := float64(qr.Total.Tenant("gold").Admitted)
	bronze := float64(qr.Total.Tenant("bronze").Admitted)
	total := gold + bronze
	if total == 0 {
		t.Fatal("no admitted ops")
	}
	// Configured shares: limit 12 split 2:1 → gold 8, bronze 4.
	for _, tc := range []struct {
		tenant   string
		admitted float64
		want     float64
	}{
		{"gold", gold, 8.0 / 12.0},
		{"bronze", bronze, 4.0 / 12.0},
	} {
		got := tc.admitted / total
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.10 {
			t.Errorf("tenant %s: admitted share %.3f, want %.3f ±10%% (gold=%v bronze=%v)",
				tc.tenant, got, tc.want, gold, bronze)
		}
	}
}
