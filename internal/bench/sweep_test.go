package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ecarray/internal/workload"
)

// microSweepOptions is the smallest sweep shape: enough simulated work for
// non-zero metrics, small enough that the determinism tests rerun the grid
// several times in a few seconds.
func microSweepOptions() Options {
	return Options{
		BlockSizes: []int64{4 << 10},
		QueueDepth: 32,
		ImageSize:  256 << 20,
		PGs:        64,
		Duration:   150 * time.Millisecond,
		Ramp:       50 * time.Millisecond,
		Seed:       7,
	}
}

// microGrid is the tiny 2×2 grid (2 ops × 2 block sizes) of one EC scheme.
func microGrid() Grid {
	return Grid{
		Schemes:     []string{"RS(6,3)"},
		Patterns:    []string{workload.Random.String()},
		Ops:         []string{workload.Read.String(), workload.Write.String()},
		BlockSizes:  []int64{4 << 10, 16 << 10},
		StripeUnits: []int64{4 << 10},
		Kernels:     []string{"auto"},
	}
}

func runMicroSweep(t *testing.T, shardIdx, shardCount int) *BenchReport {
	t.Helper()
	s, err := NewSuite(microSweepOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunSweep("micro", microGrid(), shardIdx, shardCount, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSweepPresets(t *testing.T) {
	// The paper's campaign is 704 cells: 3-Rep at one stripe unit plus two
	// EC schemes at three, × seq/rand × read/write × 8 block sizes × 3
	// fault states, plus the bare SSD's 32 healthy cells (seq/rand ×
	// read/write × 8 block sizes). Quick's 64 are 48 cluster cells and 16
	// bare-ssd ones. Every preset's kernel axis is the single "auto" value.
	for name, cells := range map[string]int{"smoke": 16, "quick": 64, "paper": 704} {
		opt, g, err := SweepPreset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := opt.validate(); err != nil {
			t.Fatalf("%s options invalid: %v", name, err)
		}
		if err := g.validate(); err != nil {
			t.Fatalf("%s grid invalid: %v", name, err)
		}
		if got := len(g.Cells()); got != cells {
			t.Fatalf("%s grid enumerates %d cells, want %d", name, got, cells)
		}
		if len(g.Kernels) != 1 || g.Kernels[0] != "auto" {
			t.Fatalf("%s kernel axis = %v, want [auto]", name, g.Kernels)
		}
	}
	if _, _, err := SweepPreset("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	// The paper preset runs the full 52-SSD array and the paper block sweep.
	opt, g, _ := SweepPreset("paper")
	if opt.StorageNodes*opt.OSDsPerNode != 52 {
		t.Fatalf("paper preset OSDs = %d, want 52", opt.StorageNodes*opt.OSDsPerNode)
	}
	if len(g.BlockSizes) != 8 || len(g.StripeUnits) < 2 {
		t.Fatalf("paper grid too small: %+v", g)
	}
}

func TestGridEnumeration(t *testing.T) {
	g := Grid{
		Schemes:     []string{"3-Rep", "RS(6,3)"},
		Patterns:    []string{"rand"},
		Ops:         []string{"write"},
		BlockSizes:  []int64{4096},
		StripeUnits: []int64{4 << 10, 16 << 10},
		Kernels:     []string{"auto"},
	}
	cells := g.Cells()
	// Replicated schemes run only the first stripe unit: 1 + 2 cells.
	if len(cells) != 3 {
		t.Fatalf("cells = %d, want 3 (stripe unit must be an EC-only axis): %+v", len(cells), cells)
	}
	ids := map[string]bool{}
	for _, c := range cells {
		if ids[c.ID()] {
			t.Fatalf("duplicate cell id %s", c.ID())
		}
		ids[c.ID()] = true
	}
	// An explicit fault axis multiplies the grid; an empty one means the
	// single healthy state.
	g.Faults = []string{"none", "degraded"}
	if n := len(g.Cells()); n != 6 {
		t.Fatalf("fault-axis cells = %d, want 6", n)
	}
	for _, c := range g.Cells() {
		if c.Fault == "" {
			t.Fatalf("cell %s missing fault state", c.ID())
		}
	}
	// A variant axis multiplies the grid innermost, after faults, so the
	// cells of a grid without one keep their enumeration index.
	g.Variants = []string{"base", "cache-off"}
	cells = g.Cells()
	if len(cells) != 12 {
		t.Fatalf("variant-axis cells = %d, want 12", len(cells))
	}
	for i, c := range cells {
		if want := g.Variants[i%2]; c.Variant != want || c.Fault != g.Faults[i/2%2] {
			t.Fatalf("cell %d = %s, want fault %s variant %s innermost", i, c.ID(), g.Faults[i/2%2], want)
		}
	}
	// bare-ssd has no cluster to fail or mutate: it runs one healthy base
	// cell per (pattern, op, block size), at the first stripe unit,
	// whatever the other axes hold.
	bare := Grid{
		Schemes:     []string{bareSSD, "RS(6,3)"},
		Patterns:    []string{"seq", "rand"},
		Ops:         []string{"read"},
		BlockSizes:  []int64{4096},
		StripeUnits: []int64{4 << 10, 16 << 10},
		Kernels:     []string{"auto"},
		Faults:      []string{"degraded", "none"},
		Variants:    []string{"cache-off", "series"},
	}
	if err := bare.validate(); err != nil {
		t.Fatalf("bare-ssd grid: %v", err)
	}
	cells = bare.Cells()
	if len(cells) != 2+16 {
		t.Fatalf("bare-ssd grid cells = %d, want 2 bare-ssd + 16 RS(6,3)", len(cells))
	}
	for i, c := range cells[:2] {
		want := CellKey{Scheme: bareSSD, Pattern: bare.Patterns[i], Op: "read", BlockSize: 4096,
			StripeUnit: 4 << 10, Kernel: "auto", Fault: "none"}
		if c != want {
			t.Errorf("bare-ssd cell %d = %+v, want %+v", i, c, want)
		}
	}
	// Such a cell can only be asked for directly, and is refused.
	s, err := NewSuite(microSweepOptions())
	if err != nil {
		t.Fatal(err)
	}
	degraded := figureKey(bareSSD, workload.Random, workload.Read, 4096)
	degraded.Fault = "degraded"
	if _, err := s.cellReports(degraded); err == nil {
		t.Error("degraded bare-ssd cell ran")
	}
	// An unknown variant's error lists every name the axis takes.
	_, err = variantMutation("turbo")
	for name := range variants {
		if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "pgs-<n>") {
			t.Errorf("variant error %v does not list %q and pgs-<n>", err, name)
		}
	}

	bad := []Grid{
		{},
		{Schemes: []string{"SSD"}, Patterns: []string{"rand"}, Ops: []string{"read"},
			BlockSizes: []int64{4096}, StripeUnits: []int64{4096}, Kernels: []string{"auto"}},
		{Schemes: []string{"bogus"}, Patterns: []string{"rand"}, Ops: []string{"read"},
			BlockSizes: []int64{4096}, StripeUnits: []int64{4096}, Kernels: []string{"auto"}},
		{Schemes: []string{"3-Rep"}, Patterns: []string{"diagonal"}, Ops: []string{"read"},
			BlockSizes: []int64{4096}, StripeUnits: []int64{4096}, Kernels: []string{"auto"}},
		{Schemes: []string{"3-Rep"}, Patterns: []string{"rand"}, Ops: []string{"trim"},
			BlockSizes: []int64{4096}, StripeUnits: []int64{4096}, Kernels: []string{"auto"}},
		{Schemes: []string{"3-Rep"}, Patterns: []string{"rand"}, Ops: []string{"read"},
			BlockSizes: []int64{4096}, StripeUnits: []int64{4096}, Kernels: []string{"warp"}},
		{Schemes: []string{"3-Rep"}, Patterns: []string{"rand"}, Ops: []string{"read"},
			BlockSizes: []int64{4096}, StripeUnits: []int64{4096}, Kernels: []string{"auto"},
			Faults: []string{"meteor"}},
		{Schemes: []string{"3-Rep"}, Patterns: []string{"rand"}, Ops: []string{"read"},
			BlockSizes: []int64{4096}, StripeUnits: []int64{4096}, Kernels: []string{"auto"},
			Variants: []string{"turbo"}},
		{Schemes: []string{"3-Rep"}, Patterns: []string{"rand"}, Ops: []string{"read"},
			BlockSizes: []int64{4096}, StripeUnits: []int64{4096}, Kernels: []string{"auto"},
			Variants: []string{"base", ""}},
	}
	for i, g := range bad {
		if err := g.validate(); err == nil {
			t.Errorf("bad grid %d accepted", i)
		}
	}
	// A real tier name is no longer a grid value: the CPU picks the tier.
	scalar := Grid{Schemes: []string{"3-Rep"}, Patterns: []string{"rand"}, Ops: []string{"read"},
		BlockSizes: []int64{4096}, StripeUnits: []int64{4096}, Kernels: []string{"scalar"}}
	if err := scalar.validate(); err == nil || !strings.Contains(err.Error(), "ROADMAP item 4") {
		t.Errorf("Kernels [scalar]: err = %v, want a rejection naming ROADMAP item 4", err)
	}
}

// TestBaseCellKeysUnchanged pins what the variant axis must not move: a
// base cell's ID, seed and JSON are what they were before the axis, so no
// digest moves. A variant cell shares its base cell's seed.
func TestBaseCellKeysUnchanged(t *testing.T) {
	// ID and seed of a smoke-sweep cell, as .github/bench-baseline.json
	// records them (suite seed 1).
	const id, seed = "3-Rep/rand/read/bs16384/su4096/auto/none", int64(4673991194575456069)
	for _, v := range []string{"", "base"} {
		k := CellKey{Scheme: "3-Rep", Pattern: "rand", Op: "read", BlockSize: 16 << 10,
			StripeUnit: 4 << 10, Kernel: "auto", Fault: "none", Variant: v}
		if k.ID() != id || k.seed(1) != seed {
			t.Errorf("variant %q: ID %s seed %d, want %s seed %d", v, k.ID(), k.seed(1), id, seed)
		}
		off := k
		off.Variant = "cache-off"
		if off.ID() != id+"/cache-off" || off.seed(1) != seed {
			t.Errorf("cache-off: ID %s seed %d, want %s/cache-off seed %d", off.ID(), off.seed(1), id, seed)
		}
	}
	_, g, err := SweepPreset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []any{g, CellReport{ID: id}} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), `"variant`) {
			t.Errorf("%T without a variant marshals a variant key: %s", v, data)
		}
	}
}

// TestSweepDeterminism is the contract the whole trajectory rests on: the
// same binary, grid and seed produce byte-identical report cells modulo
// host/timing fields — run twice in one process, and run shard-split then
// merged.
func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs are slow")
	}
	full1 := runMicroSweep(t, 0, 1)
	full2 := runMicroSweep(t, 0, 1)
	if len(full1.Cells) != 4 {
		t.Fatalf("micro sweep cells = %d, want 4", len(full1.Cells))
	}
	j1, _ := json.Marshal(full1.stripTiming())
	j2, _ := json.Marshal(full2.stripTiming())
	if string(j1) != string(j2) {
		t.Fatalf("two identical sweep runs differ:\n%s\n%s", j1, j2)
	}
	if full1.DeterministicDigest() != full2.DeterministicDigest() {
		t.Fatal("digests differ across identical runs")
	}

	// Shard 2-ways, merge, and require the same deterministic payload.
	shard0 := runMicroSweep(t, 0, 2)
	shard1 := runMicroSweep(t, 1, 2)
	if len(shard0.Cells)+len(shard1.Cells) != len(full1.Cells) {
		t.Fatalf("shards cover %d+%d cells, want %d",
			len(shard0.Cells), len(shard1.Cells), len(full1.Cells))
	}
	merged, err := MergeReports(shard0, shard1)
	if err != nil {
		t.Fatal(err)
	}
	jm, _ := json.Marshal(merged.stripTiming())
	if string(jm) != string(j1) {
		t.Fatalf("sharded+merged sweep differs from unsharded run:\n%s\n%s", jm, j1)
	}
	if merged.DeterministicDigest() != full1.DeterministicDigest() {
		t.Fatal("merged digest differs from unsharded digest")
	}
	// Every cell must have done real work.
	for _, c := range full1.Cells {
		if c.Ops == 0 || c.MBps <= 0 || c.EngineEvents == 0 {
			t.Fatalf("empty cell %s: %+v", c.ID, c)
		}
	}
}

// TestSweepFaultAxis runs one read cell in each cluster state and checks
// the fault axis does real, deterministic work: fault cells record their
// state, survive both failure and failure+recovery, and the degraded
// cluster never beats the healthy one.
func TestSweepFaultAxis(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs are slow")
	}
	g := Grid{
		Schemes:     []string{"RS(6,3)"},
		Patterns:    []string{workload.Random.String()},
		Ops:         []string{workload.Read.String()},
		BlockSizes:  []int64{4 << 10},
		StripeUnits: []int64{4 << 10},
		Kernels:     []string{"auto"},
		Faults:      []string{"none", "degraded", "recovering"},
	}
	run := func() *BenchReport {
		s, err := NewSuite(microSweepOptions())
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.RunSweep("micro", g, 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := run()
	if len(r.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(r.Cells))
	}
	byFault := map[string]CellReport{}
	for _, c := range r.Cells {
		if c.Fault == "" {
			t.Fatalf("cell %s has no fault state", c.ID)
		}
		if c.Ops == 0 || c.MBps <= 0 {
			t.Fatalf("fault cell %s did no work: %+v", c.ID, c)
		}
		byFault[c.Fault] = c
	}
	for _, want := range g.Faults {
		if _, ok := byFault[want]; !ok {
			t.Fatalf("no cell for fault state %q", want)
		}
	}
	if byFault["degraded"].MBps > byFault["none"].MBps*1.05 {
		t.Fatalf("degraded reads (%.1f MB/s) beat healthy (%.1f MB/s)",
			byFault["degraded"].MBps, byFault["none"].MBps)
	}
	// Fault cells are deterministic like every other cell.
	r2 := run()
	if r.DeterministicDigest() != r2.DeterministicDigest() {
		t.Fatal("fault-axis sweep not deterministic")
	}
}

func TestSweepShardValidation(t *testing.T) {
	s, err := NewSuite(microSweepOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunSweep("micro", microGrid(), 2, 2, nil); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := s.RunSweep("micro", Grid{}, 0, 1, nil); err == nil {
		t.Fatal("empty grid accepted")
	}
}

func TestReportRoundTripAndSchemaGate(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs are slow")
	}
	r := runMicroSweep(t, 0, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.DeterministicDigest() != r.DeterministicDigest() {
		t.Fatal("round-tripped report digest differs")
	}
	// A report from another schema generation must be refused.
	back.SchemaVersion = ReportSchemaVersion + 1
	bad := filepath.Join(dir, "BENCH_bad.json")
	data, _ := json.Marshal(back)
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(bad); err == nil {
		t.Fatal("mismatched schema version accepted")
	}
}

// TestCompareGates pins the -compare verdict: the deterministic digest
// decides, every changed cell field is listed, and only the wall-clock
// engine events/sec gate tolerates a difference.
func TestCompareGates(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs are slow")
	}
	r := runMicroSweep(t, 0, 1)
	compare := func(new *BenchReport) *CompareResult {
		t.Helper()
		res, err := CompareReports(r, new, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mustFail := func(what string, new *BenchReport, want ...string) {
		t.Helper()
		res := compare(new)
		if res.Ok() {
			t.Fatalf("%s passed the gate:\n%s", what, res.Format())
		}
		out := res.Format()
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("%s: verdict lacks %q:\n%s", what, w, out)
			}
		}
	}

	// Same run: identical payloads, nothing listed.
	if self := compare(r); !self.Ok() || !self.Identical() || len(self.Diffs) != 0 {
		t.Fatalf("self-compare not clean: %s", self.Format())
	}

	// A 1 % change to one write cell's device writes per request fails and
	// is listed with the cell, the field and both values.
	var w int
	for w = range r.Cells {
		if r.Cells[w].Op == "write" {
			break
		}
	}
	amp := cloneReport(t, r)
	amp.Cells[w].DevWritePerReq *= 1.01
	old, _ := json.Marshal(r.Cells[w].DevWritePerReq)
	now, _ := json.Marshal(amp.Cells[w].DevWritePerReq)
	mustFail("1% dev_write_per_req rise", amp,
		r.Cells[w].ID+" dev_write_per_req: "+string(old)+" → "+string(now))
	if res := compare(amp); len(res.Diffs) != 1 {
		t.Fatalf("one changed field, %d listed: %s", len(res.Diffs), res.Format())
	}

	// So does a 5 % throughput drop, once a sub-threshold wiggle; a second
	// changed cell is listed too.
	thr := cloneReport(t, r)
	thr.Cells[0].MBps *= 0.95
	thr.Cells[1].P99LatencyUS *= 2
	mustFail("5% mbps drop", thr, r.Cells[0].ID+" mbps: ", r.Cells[1].ID+" p99_latency_us: ")

	// Lost and added coverage fail.
	lost := cloneReport(t, r)
	lost.Cells = lost.Cells[1:]
	mustFail("lost cell", lost, r.Cells[0].ID+": present → absent")
	added := cloneReport(t, r)
	extra := added.Cells[0]
	extra.ID += "/extra"
	added.Cells = append(added.Cells, extra)
	mustFail("added cell", added, extra.ID+": absent → present")
	// So does a grown grid: its new cells and its grid fields are listed.
	grown := cloneReport(t, added)
	grown.Grid.Variants = append(grown.Grid.Variants, "series")
	mustFail("grown grid", grown, extra.ID+": absent → present", "report grid.variants")

	// A report-level deterministic field is listed by its dotted name.
	events := cloneReport(t, r)
	events.Engine.Events++
	mustFail("engine event count change", events, "report engine.events: ")

	// Timing fields are not compared.
	timing := cloneReport(t, r)
	timing.Cells[0].WallMS *= 3
	timing.Cells[1].EventsPerSec /= 3
	timing.Engine.WallSeconds *= 3
	if res := compare(timing); !res.Ok() || !res.Identical() {
		t.Fatalf("timing-only change failed the gate: %s", res.Format())
	}

	// An engine events/sec collapse fails (timing gate).
	slowEng := cloneReport(t, r)
	slowEng.Engine.EventsPerSec = r.Engine.EventsPerSec * 0.1
	mustFail("90% engine events/sec drop", slowEng, "REGRESSION engine events/sec")

	// Mismatched configs refuse to compare at all.
	other := cloneReport(t, r)
	other.Config.Seed++
	if _, err := CompareReports(r, other, 0); err == nil {
		t.Fatal("config mismatch compared anyway")
	}
}

func TestMergeValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs are slow")
	}
	r := runMicroSweep(t, 0, 1)
	if _, err := MergeReports(); err == nil {
		t.Fatal("empty merge accepted")
	}
	// Merging a report with itself dedupes identical cells.
	m, err := MergeReports(r, cloneReport(t, r))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != len(r.Cells) {
		t.Fatalf("self-merge cells = %d, want %d", len(m.Cells), len(r.Cells))
	}
	// A duplicate that differs only in its timing fields merges.
	timing := cloneReport(t, r)
	timing.Cells[0].WallMS *= 3
	timing.Cells[0].EventsPerSec /= 3
	if _, err := MergeReports(r, timing); err != nil {
		t.Fatalf("timing-only difference refused: %v", err)
	}
	// A conflicting duplicate cell is a determinism violation, not
	// mergeable, and the error names the field.
	evil := cloneReport(t, r)
	evil.Cells[0].Ops++
	_, err = MergeReports(r, evil)
	if want := fmt.Sprintf("cell %s ops: %d → %d", r.Cells[0].ID, r.Cells[0].Ops, evil.Cells[0].Ops); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("conflicting duplicate cell: err %v, want one naming %q", err, want)
	}
	// Different run shapes don't merge.
	other := cloneReport(t, r)
	other.Config.QueueDepth++
	if _, err := MergeReports(r, other); err == nil {
		t.Fatal("config mismatch merged")
	}
}

// cloneReport deep-copies a report through JSON.
func cloneReport(t *testing.T, r *BenchReport) *BenchReport {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out BenchReport
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}
