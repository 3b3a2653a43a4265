package bench

import (
	"strconv"
	"testing"
)

// tinyTables memoizes tinyScenario. The package's tests run sequentially, so
// a plain map needs no lock.
var tinyTables = map[string]Table{}

// tinyScenario returns the Tiny-scale table of one scenario, run on a fresh
// suite the first time a test in this binary asks for it. Tests that only
// read a table share it through here instead of each paying for the run
// again; a test that needs an independent run calls RunScenario itself.
func tinyScenario(t *testing.T, id string) Table {
	t.Helper()
	if tb, ok := tinyTables[id]; ok {
		return tb
	}
	tb, err := tinySuite(t).RunScenario(id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	tinyTables[id] = tb
	return tb
}

func TestScenarioIDsCovered(t *testing.T) {
	for _, id := range ScenarioIDs() {
		tb := tinyScenario(t, id)
		if len(tb.Rows) == 0 || len(tb.Columns) == 0 {
			t.Fatalf("%s produced an empty table", id)
		}
	}
	if _, err := tinySuite(t).RunScenario("nope"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestDegradedReadScenarioShowsTax: the degraded and recovering phases
// must cost more private-network bytes per requested byte than the healthy
// phase — the §IV-E effect the scenario exists to expose.
func TestDegradedReadScenarioShowsTax(t *testing.T) {
	tb := tinyScenario(t, "degraded-read")
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 phases", len(tb.Rows))
	}
	col := func(row int, name string) float64 {
		for i, c := range tb.Columns {
			if c == name {
				v, err := strconv.ParseFloat(tb.Rows[row][i], 64)
				if err != nil {
					t.Fatalf("row %d col %s: %v", row, name, err)
				}
				return v
			}
		}
		t.Fatalf("no column %s", name)
		return 0
	}
	healthyNet := col(0, "privnet/req")
	degradedNet := col(1, "privnet/req")
	recoveringNet := col(2, "privnet/req")
	if degradedNet <= healthyNet {
		t.Fatalf("degraded privnet/req %.2f not above healthy %.2f", degradedNet, healthyNet)
	}
	if recoveringNet <= healthyNet {
		t.Fatalf("recovering privnet/req %.2f not above healthy %.2f", recoveringNet, healthyNet)
	}
	if col(0, "MB/s") <= 0 {
		t.Fatal("healthy phase idle")
	}
}

// TestRecoveryInterferenceThrottle: the throttled repair row must take
// longer than the unthrottled one.
func TestRecoveryInterferenceThrottle(t *testing.T) {
	tb := tinyScenario(t, "recovery-interference")
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 rates", len(tb.Rows))
	}
	if tb.Rows[0][0] != "unthrottled" {
		t.Fatalf("first row = %v", tb.Rows[0])
	}
	for _, row := range tb.Rows {
		if row[len(row)-2] == "-" {
			t.Fatalf("recovery never ran: %v", row)
		}
	}
}

// TestGrayFailureScenarioBoundsTail: the gray-failure acceptance gate.
// With one OSD at 10x device latency, the tail-tolerant run must keep the
// gray-phase read p99 within 2x of its healthy phase, engage hedges, and
// eject the victim; the unprotected run must show a worse p99 inflation
// and zero gray-path activity (the counters only move when the knobs are
// on).
func TestGrayFailureScenarioBoundsTail(t *testing.T) {
	tb := tinyScenario(t, "gray-failure")
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 2 modes x 3 phases", len(tb.Rows))
	}
	col := func(row int, name string) float64 {
		for i, c := range tb.Columns {
			if c == name {
				v, err := strconv.ParseFloat(tb.Rows[row][i], 64)
				if err != nil {
					t.Fatalf("row %d col %s: %v", row, name, err)
				}
				return v
			}
		}
		t.Fatalf("no column %s", name)
		return 0
	}
	// Rows 0-2 are tail-tolerant healthy/gray/recovered, 3-5 unprotected.
	tolRatio := col(1, "p99 ms") / col(0, "p99 ms")
	rawRatio := col(4, "p99 ms") / col(3, "p99 ms")
	if tolRatio > 2 {
		t.Fatalf("tail-tolerant gray p99 = %.2fx healthy, want <= 2x", tolRatio)
	}
	if rawRatio <= tolRatio {
		t.Fatalf("unprotected p99 inflation %.2fx not above tail-tolerant %.2fx", rawRatio, tolRatio)
	}
	if col(1, "hedges") == 0 {
		t.Fatal("tail-tolerant gray phase issued no hedges")
	}
	if col(1, "ejects") == 0 {
		t.Fatal("breaker never ejected the 10x-slow OSD")
	}
	for row := 3; row < 6; row++ {
		for _, c := range []string{"timeouts", "hedges", "ejects"} {
			if col(row, c) != 0 {
				t.Fatalf("unprotected run row %d has nonzero %s", row, c)
			}
		}
	}
	if col(0, "timeouts")+col(0, "hedges")+col(0, "ejects") != 0 {
		t.Fatal("tail-tolerant healthy phase leaked gray activity")
	}
}

// TestScenarioTablesDeterministic: scenario tables are rendered from the
// deterministic runner, so two fresh suites must agree cell for cell. The
// shared table came from one fresh suite; the second run here is independent.
func TestScenarioTablesDeterministic(t *testing.T) {
	a := tinyScenario(t, "degraded-read")
	b, err := tinySuite(t).RunScenario("degraded-read")
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() != b.Format() {
		t.Fatalf("scenario table not deterministic:\n%s\nvs\n%s", a.Format(), b.Format())
	}
}
