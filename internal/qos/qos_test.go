package qos

import (
	"testing"
	"time"
)

func TestQoSMaxInflightMatchesChannelGate(t *testing.T) {
	// Semantics of the historical channel-based gateway gate: admit up
	// to limit, reject beyond, release frees a slot.
	m := NewMaxInflight(2)
	r := Request{}
	if d := m.Admit(r); !d.Admit {
		t.Fatal("first admit")
	}
	if d := m.Admit(r); !d.Admit {
		t.Fatal("second admit")
	}
	d := m.Admit(r)
	if d.Admit {
		t.Fatal("third should reject")
	}
	if d.RetryAfter != time.Second {
		t.Errorf("first rejection RetryAfter = %v, want 1s (matches historical static header)", d.RetryAfter)
	}
	if d.Trace == nil || d.Trace.Policy == "" || !containsChosen(d.Trace.Candidates, "reject") {
		t.Errorf("rejection trace missing: %+v", d.Trace)
	}
	// Sustained rejection pressure raises the hint.
	for i := 0; i < 4; i++ {
		d = m.Admit(r)
	}
	if d.RetryAfter <= time.Second {
		t.Errorf("pressured RetryAfter = %v, want > 1s", d.RetryAfter)
	}
	m.Release(r)
	if d := m.Admit(r); !d.Admit {
		t.Fatal("admit after release")
	}
}

func TestQoSWeightedFairShares(t *testing.T) {
	w := NewWeightedFair(12, map[string]float64{"gold": 2, "bronze": 1})
	admit := func(tenant string) bool {
		return w.Admit(Request{Tenant: tenant}).Admit
	}
	// gold's share is floor(12*2/3)=8, bronze's floor(12*1/3)=4.
	for i := 0; i < 8; i++ {
		if !admit("gold") {
			t.Fatalf("gold admit %d", i)
		}
	}
	if admit("gold") {
		t.Fatal("gold beyond share")
	}
	// gold saturating its share must not affect bronze at all.
	for i := 0; i < 4; i++ {
		if !admit("bronze") {
			t.Fatalf("bronze admit %d under gold flood", i)
		}
	}
	d := w.Admit(Request{Tenant: "bronze"})
	if d.Admit {
		t.Fatal("bronze beyond share")
	}
	if d.Trace == nil || len(d.Trace.Candidates) != 2 {
		t.Fatalf("rejection trace should list every configured tenant's occupancy: %+v", d.Trace)
	}
	// Unknown tenants get a default-weight share, not zero and not the
	// whole limit.
	if !admit("mystery") {
		t.Fatal("unknown tenant should get a minimal share")
	}
	w.Release(Request{Tenant: "gold"})
	if !admit("gold") {
		t.Fatal("gold after release")
	}
}

func TestQoSUnlimitedAdmitsWithoutTrace(t *testing.T) {
	if d := (Unlimited{}).Admit(Request{Tenant: "x"}); d != (Decision{Admit: true}) {
		t.Fatalf("unlimited decision: %+v", d)
	}
}

// TestAdmitSteadyStateAllocs: an admitted Admit+Release builds no trace,
// so a warm policy allocates nothing per request.
func TestAdmitSteadyStateAllocs(t *testing.T) {
	for name, pol := range map[string]AdmissionPolicy{
		"max-inflight":  NewMaxInflight(4),
		"weighted-fair": NewWeightedFair(4, map[string]float64{"gold": 1}),
	} {
		r := Request{Tenant: "gold"}
		allocs := testing.AllocsPerRun(1000, func() {
			if !pol.Admit(r).Admit {
				t.Fatalf("%s: rejected an admit below its limit", name)
			}
			pol.Release(r)
		})
		if allocs != 0 {
			t.Errorf("%s: admitted Admit+Release allocates %v, want 0", name, allocs)
		}
	}
}

func containsChosen(cs []Candidate, id string) bool {
	for _, c := range cs {
		if c.ID == id && c.Chosen {
			return true
		}
	}
	return false
}
