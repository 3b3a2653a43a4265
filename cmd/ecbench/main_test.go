package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ecarray/internal/bench"
)

func TestChooseMode(t *testing.T) {
	ok := []struct {
		f    modeFlags
		want string
	}{
		{modeFlags{}, "figures"},
		{modeFlags{FigSet: true}, "figures"},
		{modeFlags{Scenarios: true}, "scenarios"},
		{modeFlags{Ablations: true}, "ablations"},
		{modeFlags{Sweep: true}, "sweep"},
		{modeFlags{Traces: true}, "sweep"},
		{modeFlags{Sweep: true, Traces: true}, "sweep"},
		{modeFlags{Compare: true}, "compare"},
		{modeFlags{Merge: true}, "merge"},
	}
	for _, c := range ok {
		got, err := chooseMode(c.f)
		if err != nil || got != c.want {
			t.Errorf("chooseMode(%+v) = %q, %v; want %q", c.f, got, err, c.want)
		}
	}
	// Contradictory combinations must be usage errors, not silently
	// resolved (the old behaviour ran one mode and ignored the other).
	bad := []modeFlags{
		{Compare: true, Scenarios: true},
		{Compare: true, Sweep: true},
		{Compare: true, Merge: true},
		{Scenarios: true, Ablations: true},
		{Sweep: true, Ablations: true},
		{FigSet: true, Scenarios: true},
		{FigSet: true, Compare: true},
		{FigSet: true, Sweep: true},
		{Compare: true, Scenarios: true, Sweep: true},
		// -traces writes the corpus of a sweep's cells and nothing else.
		{Traces: true, Compare: true},
		{Traces: true, Merge: true},
		{Traces: true, FigSet: true},
		{Traces: true, Ablations: true},
		{Traces: true, Scenarios: true},
	}
	for _, f := range bad {
		if mode, err := chooseMode(f); err == nil {
			t.Errorf("chooseMode(%+v) = %q, want conflict error", f, mode)
		}
	}
}

func TestParseShard(t *testing.T) {
	for _, c := range []struct {
		in         string
		idx, count int
	}{
		{"", 0, 1},
		{"0/1", 0, 1},
		{"0/4", 0, 4},
		{"3/4", 3, 4},
	} {
		idx, count, err := parseShard(c.in)
		if err != nil || idx != c.idx || count != c.count {
			t.Errorf("parseShard(%q) = %d, %d, %v; want %d, %d", c.in, idx, count, err, c.idx, c.count)
		}
	}
	for _, in := range []string{"1", "x/2", "1/x", "2/2", "-1/2", "0/0", "0/-1"} {
		if _, _, err := parseShard(in); err == nil {
			t.Errorf("parseShard(%q) accepted", in)
		}
	}
}

// TestTracesFollowTheShard runs shard 2/4 of the smoke sweep with -traces.
// Faults are the innermost grid axis and block sizes the next, so that
// shard holds the healthy 16 KiB cells and no other corpus cell.
func TestTracesFollowTheShard(t *testing.T) {
	opt, grid, err := bench.SweepPreset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	opt.TraceDir = filepath.Join(t.TempDir(), "traces")
	suite, err := bench.NewSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	runSweep(suite, "smoke", grid, "2/4", filepath.Join(t.TempDir(), "shard.json"))
	entries, err := os.ReadDir(opt.TraceDir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	want := []string{
		"3rep_randread_bs16k_data.trace", "3rep_randwrite_bs16k_data.trace", "3rep_randwrite_bs16k_meta.trace",
		"rs6_3_randread_bs16k_data.trace", "rs6_3_randwrite_bs16k_data.trace", "rs6_3_randwrite_bs16k_meta.trace",
	}
	if !slices.Equal(got, want) {
		t.Errorf("shard 2/4 wrote %v, want %v", got, want)
	}
}

// TestCompareAgainstBaseline is CI's bench gate in tier-1: the smoke sweep
// must match the committed baseline's digest, and a 1 % change to one
// write cell's device writes per request must fail and be named. A drop
// fraction of 1 turns the wall-clock engine events/sec gate off: under
// -race the engine runs about 10× slower, and CI's bench job holds that
// gate at 0.95.
func TestCompareAgainstBaseline(t *testing.T) {
	const baseline, noEventsGate = "../../.github/bench-baseline.json", 1
	opt, grid, err := bench.SweepPreset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := bench.NewSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh.json")
	runSweep(suite, "smoke", grid, "", fresh)

	var out bytes.Buffer
	if status := runCompare(&out, baseline, fresh, noEventsGate); status != 0 ||
		!strings.Contains(out.String(), "deterministically identical (digest e4f948e9d1598712)") {
		t.Fatalf("smoke sweep against the baseline: status %d\n%s", status, out.String())
	}

	r, err := bench.LoadReport(fresh)
	if err != nil {
		t.Fatal(err)
	}
	var cell *bench.CellReport
	for i := range r.Cells {
		if r.Cells[i].Op == "write" {
			cell = &r.Cells[i]
			break
		}
	}
	cell.DevWritePerReq *= 1.01
	changed := filepath.Join(dir, "changed.json")
	if err := r.WriteFile(changed); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if status := runCompare(&out, baseline, changed, noEventsGate); status != 1 ||
		!strings.Contains(out.String(), cell.ID+" dev_write_per_req: ") {
		t.Fatalf("1%% dev_write_per_req change: status %d\n%s", status, out.String())
	}
}
