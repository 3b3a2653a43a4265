package qos

import (
	"testing"
	"time"
)

func TestQoSTokenBucketAdmitThrottleReject(t *testing.T) {
	tb := NewTokenBucket(TenantConfig{}, map[string]TenantConfig{
		"a": {Rate: 10, Burst: 2, MaxWait: 150 * time.Millisecond},
	})
	now := int64(0)
	// Burst of 2 admits immediately.
	for i := 0; i < 2; i++ {
		d := tb.Admit(Request{Tenant: "a", Cost: 1, Now: now})
		if !d.Admit || d.Delay != 0 {
			t.Fatalf("burst admit %d: %+v", i, d)
		}
	}
	// Third is over-rate but within MaxWait: shaped, not rejected, and
	// the delay is the refill time for one token at 10/s = 100ms.
	d := tb.Admit(Request{Tenant: "a", Cost: 1, Now: now})
	if !d.Admit || d.Delay != 100*time.Millisecond {
		t.Fatalf("shaped admit: %+v", d)
	}
	// Fourth would need 200ms > MaxWait: rejected with the true refill
	// time as RetryAfter, and a trace naming the counterfactuals.
	d = tb.Admit(Request{Tenant: "a", Cost: 1, Now: now})
	if d.Admit {
		t.Fatalf("expected rejection, got %+v", d)
	}
	if d.RetryAfter != 200*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 200ms", d.RetryAfter)
	}
	if d.Trace == nil || len(d.Trace.Candidates) != 3 {
		t.Fatalf("rejection must carry a trace with counterfactuals: %+v", d.Trace)
	}
	// After a second of refill the bucket recovers (capped at burst).
	now += int64(time.Second)
	d = tb.Admit(Request{Tenant: "a", Cost: 1, Now: now})
	if !d.Admit || d.Delay != 0 {
		t.Fatalf("post-refill admit: %+v", d)
	}
	// Unconfigured tenant under a zero default config is unlimited.
	for i := 0; i < 100; i++ {
		if d := tb.Admit(Request{Tenant: "z", Cost: 1, Now: now}); !d.Admit {
			t.Fatalf("unlimited tenant rejected at %d", i)
		}
	}
}

func TestQoSMaxInflightMatchesChannelGate(t *testing.T) {
	// Semantics of the historical channel-based gateway gate: admit up
	// to limit, reject beyond, release frees a slot.
	m := NewMaxInflight(2)
	r := Request{Tenant: "", Cost: 1}
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
	if d.Trace == nil || !containsChosen(d.Trace.Candidates, "reject") {
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
	w := NewWeightedFair(12, TenantConfig{Weight: 1}, map[string]TenantConfig{
		"gold":   {Weight: 2},
		"bronze": {Weight: 1},
	})
	admit := func(tenant string) bool {
		return w.Admit(Request{Tenant: tenant, Cost: 1}).Admit
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
	d := w.Admit(Request{Tenant: "bronze", Cost: 1})
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

func TestQoSUnlimitedTraces(t *testing.T) {
	d := Unlimited{}.Admit(Request{Tenant: "x", Now: 42})
	if !d.Admit || d.Trace == nil || !d.Trace.Admitted || d.Trace.Tenant != "x" {
		t.Fatalf("unlimited decision: %+v", d)
	}
	if s := d.Trace.String(); s == "" {
		t.Fatal("trace String")
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
