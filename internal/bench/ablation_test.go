package bench

import (
	"strconv"
	"testing"
)

func cellF(t *testing.T, tb Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell %d,%d of %s: %v", row, col, tb.ID, err)
	}
	return v
}

func TestAblationIDs(t *testing.T) {
	s := tinySuite(t)
	if len(AblationIDs()) != 5 || len(ablations) != 5 {
		t.Fatalf("ablations = %v", AblationIDs())
	}
	if _, err := s.RunAblation("nope"); err == nil {
		t.Fatal("unknown ablation must error")
	}
	for _, id := range AblationIDs() {
		if err := ablations[id].grid.validate(); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

// TestAblationCellsAreSweepCells: an ablation is a projection of sweep
// cells. Every number in the client-cap table is the MB/s of the sweep
// cell with the same key, run by another suite; the variant cells run on
// their base cells' seeds; and the grid shards and merges like any other.
func TestAblationCellsAreSweepCells(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs are slow")
	}
	opt := microSweepOptions()
	abl, err := NewSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := abl.RunAblation("client-cap")
	if err != nil {
		t.Fatal(err)
	}
	a := ablations["client-cap"]
	sweep := func(shardIdx, shardCount int) *BenchReport {
		s, err := NewSuite(opt)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.RunSweep("micro", a.grid, shardIdx, shardCount, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := sweep(0, 1)
	if len(tb.Rows) != len(a.grid.Variants) {
		t.Fatalf("rows = %d, want one per variant %v", len(tb.Rows), a.grid.Variants)
	}
	for i, v := range a.grid.Variants {
		for j, sc := range a.grid.Schemes {
			k := CellKey{Scheme: sc, Pattern: a.grid.Patterns[0], Op: a.grid.Ops[0], BlockSize: a.grid.BlockSizes[0],
				StripeUnit: a.grid.StripeUnits[0], Kernel: "auto", Fault: "none", Variant: v}
			c := r.Cell(k.ID())
			if c == nil {
				t.Fatalf("sweep has no cell %s", k.ID())
			}
			if got, want := tb.Rows[i][j+1], f1(c.MBps); got != want {
				t.Errorf("client-cap %s row %s = %s MB/s, sweep cell %s = %s", sc, v, got, k.ID(), want)
			}
			base := k
			base.Variant = ""
			if b := r.Cell(base.ID()); b == nil || c.Seed != b.Seed {
				t.Errorf("cell %s seed %d, want its base cell %s's seed", k.ID(), c.Seed, base.ID())
			}
		}
	}
	merged, err := MergeReports(sweep(0, 2), sweep(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if merged.DeterministicDigest() != r.DeterministicDigest() {
		t.Fatal("sharded+merged ablation grid differs from the unsharded sweep")
	}
}

func TestAblationStripeCache(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := tinySuite(t)
	tb, err := s.RunAblation("stripe-cache")
	if err != nil {
		t.Fatal(err)
	}
	// The shard OSDs' block caches absorb repeat device reads either way;
	// the stripe cache's contribution shows in the private network pulls.
	onNet, offNet := cellF(t, tb, 0, 3), cellF(t, tb, 1, 3)
	if offNet <= onNet*1.5 {
		t.Fatalf("disabling the stripe cache must inflate private pulls: on=%.2f off=%.2f", onNet, offNet)
	}
}

func TestAblationWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := tinySuite(t)
	tb, err := s.RunAblation("wal")
	if err != nil {
		t.Fatal(err)
	}
	onAmp, offAmp := cellF(t, tb, 0, 2), cellF(t, tb, 1, 2)
	if offAmp >= onAmp {
		t.Fatalf("disabling the WAL must reduce write amp: on=%.2f off=%.2f", onAmp, offAmp)
	}
}

func TestAblationClientCap(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := tinySuite(t)
	tb, err := s.RunAblation("client-cap")
	if err != nil {
		t.Fatal(err)
	}
	withCap := cellF(t, tb, 0, 3) // rep/ec ratio with serialization
	without := cellF(t, tb, 1, 3) // without
	if withCap > 1.35 {
		t.Fatalf("with the client cap, schemes must be close: ratio %.2f", withCap)
	}
	if without < withCap {
		t.Fatalf("removing the cap must separate the schemes: with=%.2f without=%.2f", withCap, without)
	}
}

func TestAblationStripeWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := tinySuite(t)
	tb, err := s.RunAblation("stripe-width")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Wider stripes must increase per-request device writes. The rows are
	// not seed-paired: the stripe unit is part of the cell ID, so each row
	// runs on its own seed and the rise mixes the mechanism with seed noise.
	if cellF(t, tb, 2, 4) <= cellF(t, tb, 0, 4) {
		t.Fatalf("wider stripe unit must raise write amplification: %v", tb.Rows)
	}
}

func TestAblationPGCount(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := tinySuite(t)
	tb, err := s.RunAblation("pg-count")
	if err != nil {
		t.Fatal(err)
	}
	// Few PGs must not beat many PGs for random writes.
	if cellF(t, tb, 0, 1) > cellF(t, tb, 2, 1)*1.1 {
		t.Fatalf("16 PGs outperformed %s PGs: %v", tb.Rows[2][0], tb.Rows)
	}
}
