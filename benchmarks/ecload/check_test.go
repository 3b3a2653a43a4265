package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCheck runs every workload, untraced and traced, against real daemons
// at 1/20 scale: what tier-1 sees of the harness.
func TestCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("starts seven daemons per workload")
	}
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	trace := filepath.Join(dir, "trace.json")
	code := run([]string{"-check", "-bin", filepath.Join(dir, "bin"), "-work", filepath.Join(dir, "work"),
		"-trace-out", trace, "-out", report})
	if code != 0 {
		t.Fatalf("ecload -check exited %d", code)
	}

	rep, err := loadReport(report)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2*len(workloads) {
		t.Fatalf("%d runs, want %d", len(rep.Runs), 2*len(workloads))
	}
	for _, r := range rep.Runs {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", r.Workload, r.Trace, r.Correct, r.Attempted, r.Failed)
		}
		specs := endToEnd
		if r.Trace == 1 {
			specs = perLayer
		}
		if len(r.Metrics) != len(specs) {
			t.Errorf("%s trace=%d: %d metrics, want %d", r.Workload, r.Trace, len(r.Metrics), len(specs))
		}
		for _, s := range specs {
			v, ok := r.Metrics[s.Name]
			if !ok || v.Unit != s.Unit {
				t.Errorf("%s trace=%d: metric %s missing or in %q", r.Workload, r.Trace, s.Name, v.Unit)
			}
			if r.Trace == 0 && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g; the driver needs it above 0", r.Workload, s.Name, v.Value)
			}
		}
		if r.Trace == 1 && r.Workload == wlDegraded {
			for _, name := range []string{"service.degraded_reads_frac", "service.degraded_writes_frac", "service.breaker_trips",
				"service.shard_fanout_ms.get", "rs.stream_decode_degraded_ms", "gf.mul_sources_gbps"} {
				if r.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %g, want > 0", r.Workload, name, r.Metrics[name].Value)
				}
			}
		}
		if r.Trace == 1 && r.Workload == wlSim && r.Metrics["sim.events_total"].Value <= 0 {
			t.Errorf("sim-sweep dispatched no events")
		}
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct{ Spans []span }
	if err := json.Unmarshal(data, &tr); err != nil || len(tr.Spans) == 0 {
		t.Errorf("trace.json: %d spans, err %v", len(tr.Spans), err)
	}
	if _, err := os.Stat(filepath.Join(dir, "work")); !os.IsNotExist(err) {
		t.Errorf("scratch directory was left behind (err %v)", err)
	}
}
