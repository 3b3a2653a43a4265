package paperref

import (
	"strings"
	"testing"
)

func TestPointsCoverEveryFigure(t *testing.T) {
	want := []string{
		"fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20",
	}
	have := map[string]bool{}
	for _, p := range Points() {
		have[p.Figure] = true
	}
	for _, f := range want {
		if !have[f] {
			t.Errorf("no reference points for %s", f)
		}
	}
}

func TestPointsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Points() {
		key := p.Figure + "/" + p.Metric
		if seen[key] {
			t.Errorf("duplicate point %s", key)
		}
		seen[key] = true
		if p.Value <= 0 {
			t.Errorf("%s: non-positive value %v", key, p.Value)
		}
		if p.Desc == "" {
			t.Errorf("%s: missing description", key)
		}
	}
	if len(seen) < 40 {
		t.Fatalf("only %d reference points; expected a thorough catalog", len(seen))
	}
}

func TestForFigureAndLookup(t *testing.T) {
	fig1 := 0
	for _, p := range Points() {
		if p.Figure == "fig1" {
			fig1++
		}
	}
	if fig1 != 7 {
		t.Fatalf("fig1 points = %d, want 7", fig1)
	}
	p, ok := Lookup("fig14", "ec_vs_rep_write_amp")
	if !ok || p.Value != 55 {
		t.Fatalf("Lookup failed: %+v %v", p, ok)
	}
	if _, ok := Lookup("fig99", "nope"); ok {
		t.Fatal("bogus lookup succeeded")
	}
}

func TestCheckWithin(t *testing.T) {
	p, _ := Lookup("fig15", "rs63_rand_4k") // paper 6.9
	in := p.CheckWithin(6.0, 3, 9)
	if !in.Pass || in.Measured != 6.0 || in.Paper != 6.9 || in.Lo != 3 || in.Hi != 9 {
		t.Fatalf("in-band check wrong: %+v", in)
	}
	out := p.CheckWithin(12.0, 3, 9)
	if out.Pass {
		t.Fatalf("out-of-band check passed: %+v", out)
	}
	if s := out.String(); !strings.Contains(s, "FAIL") || !strings.Contains(s, "fig15") {
		t.Fatalf("String missing verdict: %s", s)
	}
	if s := in.String(); !strings.Contains(s, "PASS") {
		t.Fatalf("String missing verdict: %s", s)
	}
}
