package bench

import (
	"testing"

	"ecarray/internal/qos"
)

// TestQoSOverloadIsolation is the acceptance check of the qos-overload
// scenario: under the 120% open-loop ramp (overload phase, and through
// the failure-during-overload phase), the weighted-fair policy must keep
// the high-weight tenant's read p99 within 2x of its healthy-phase p99,
// while unlimited admission must not — the backlog-vs-shedding contrast
// the two arms exist to expose.
func TestQoSOverloadIsolation(t *testing.T) {
	s, err := NewSuite(Smoke())
	if err != nil {
		t.Fatal(err)
	}
	caps, err := s.qosCapacity()
	if err != nil {
		t.Fatal(err)
	}
	fair, err := s.qosOverloadRun("weighted-fair", qosFairPolicy(s.qosFairLimit()), caps)
	if err != nil {
		t.Fatal(err)
	}
	unlim, err := s.qosOverloadRun("unlimited", qos.Unlimited{}, caps)
	if err != nil {
		t.Fatal(err)
	}

	if r := fair.p99Ratio("gold"); r <= 0 || r > 2 {
		t.Errorf("weighted-fair: gold overload p99 ratio %.2fx, want (0, 2]", r)
	}
	if r := unlim.p99Ratio("gold"); r <= 2 {
		t.Errorf("unlimited: gold overload p99 ratio %.2fx, want > 2x", r)
	}
	// Isolation must hold through the failure-during-overload phase too.
	gold := fair.res.Job("gold-base")
	healthy := ms(gold.Phases[0].P99Latency)
	failure := ms(gold.Phases[2].P99Latency)
	if healthy <= 0 || failure > 2*healthy {
		t.Errorf("weighted-fair: gold failure-phase p99 %.2fms vs healthy %.2fms, want within 2x", failure, healthy)
	}

	// Fairness shed load: rejections happened, and every one retained an
	// auditable DecisionTrace.
	rejected := fair.report.Total.Total().Rejected
	if rejected == 0 {
		t.Fatal("weighted-fair arm rejected nothing under 120% load")
	}
	if len(fair.traces) == 0 {
		t.Fatal("rejections retained no decision traces")
	}
	for i, tr := range fair.traces {
		if tr.Policy != "weighted-fair" || tr.Reason == "" || len(tr.Candidates) == 0 {
			t.Fatalf("trace %d is not an auditable rejection: %+v", i, tr)
		}
	}
	// The unlimited arm admitted everything.
	if r := unlim.report.Total.Total().Rejected; r != 0 {
		t.Errorf("unlimited arm rejected %d ops", r)
	}
}

// TestQoSOverloadTableShape runs the scenario through the public entry
// point: one row per (policy, tenant, phase), plus the isolation and
// audit notes.
func TestQoSOverloadTableShape(t *testing.T) {
	s, err := NewSuite(Smoke())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.RunScenario("qos-overload")
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 3 * 3; len(tb.Rows) != want {
		t.Fatalf("table has %d rows, want %d", len(tb.Rows), want)
	}
	if len(tb.Notes) < 3 {
		t.Fatalf("table has %d notes, want the capacity, isolation and audit notes", len(tb.Notes))
	}
}
