package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"ecarray/internal/workload"
)

// tinySuite returns a suite at the smallest meaningful scale.
func tinySuite(t testing.TB) *Suite {
	t.Helper()
	s, err := NewSuite(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{},
		{BlockSizes: []int64{4096}, QueueDepth: 0, ImageSize: 1, PGs: 1, Duration: time.Second},
		{BlockSizes: []int64{4096}, QueueDepth: 1, ImageSize: 1, PGs: 1, Duration: 0},
	}
	for i, o := range bad {
		if _, err := NewSuite(o); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
	if _, err := NewSuite(Tiny()); err != nil {
		t.Fatal(err)
	}
}

func TestPresets(t *testing.T) {
	if len(PaperBlockSizes()) != 8 {
		t.Fatal("paper sweep must cover 1KB..128KB")
	}
	for _, o := range []Options{Quick(), Tiny(), Paper()} {
		if err := o.validate(); err != nil {
			t.Fatalf("preset invalid: %v", err)
		}
	}
	if Paper().ImageSize <= Quick().ImageSize {
		t.Fatal("paper preset must be larger than quick")
	}
}

func TestSchemes(t *testing.T) {
	sc := Schemes()
	if len(sc) != 3 || sc[0].Name != "3-Rep" || sc[1].Name != "RS(6,3)" || sc[2].Name != "RS(10,4)" {
		t.Fatalf("schemes = %v", sc)
	}
}

// TestEveryFigureRenders renders every figure at micro options with its
// table count, then all of them again through RunAll: every cell,
// bare-ssd and time-series cells included, is cached, so the second pass
// runs no simulation at all.
func TestEveryFigureRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	tables := map[string]int{
		"fig1": 1, "fig5": 2, "fig6": 2, "fig7": 2, "fig8": 2, "fig9": 2,
		"fig10": 2, "fig11": 2, "fig12": 2, "fig13": 2, "fig14": 2, "fig15": 2,
		"fig16": 2, "fig17": 2, "fig18": 2, "fig19": 1, "fig20": 2,
	}
	if len(tables) != len(FigureIDs()) {
		t.Fatalf("table counts for %d figures, FigureIDs has %d", len(tables), len(FigureIDs()))
	}
	s, err := NewSuite(microSweepOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range FigureIDs() {
		ts, err := s.RunFigure(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(ts) != tables[id] {
			t.Fatalf("%s rendered %d tables, want %d", id, len(ts), tables[id])
		}
		for _, tb := range ts {
			if len(tb.Rows) == 0 {
				t.Errorf("%s table %s has no rows", id, tb.ID)
			}
		}
	}
	before := s.eng
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s.eng != before {
		t.Fatalf("second RunAll ran %d more engine events", s.eng.events-before.events)
	}
}

// TestFigureCellsAreSweepCells: a figure is a projection of sweep cells.
// Every number in fig7a is the MB/s of the sweep cell with the same key,
// every fig18 ratio is of two such cells' MB/s, bare-ssd included, and
// every fig19 and fig20 row is a sample of a "series" or "prefill-writes"
// cell, all run by another suite.
func TestFigureCellsAreSweepCells(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs are slow")
	}
	opt := microSweepOptions()
	fig, err := NewSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	figure := func(id string) []Table {
		t.Helper()
		tables, err := fig.RunFigure(id)
		if err != nil {
			t.Fatal(err)
		}
		return tables
	}
	sw, err := NewSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(g Grid) *BenchReport {
		t.Helper()
		r, err := sw.RunSweep("micro", g, 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cell := func(r *BenchReport, k CellKey) CellReport {
		t.Helper()
		c := r.Cell(k.ID())
		if c == nil {
			t.Fatalf("sweep has no cell %s", k.ID())
		}
		return *c
	}
	seq, rand := workload.Sequential, workload.Random
	r := sweep(Grid{
		Schemes:     []string{"3-Rep", "RS(6,3)", "RS(10,4)", bareSSD},
		Patterns:    []string{seq.String(), rand.String()},
		Ops:         []string{workload.Read.String(), workload.Write.String()},
		BlockSizes:  opt.BlockSizes,
		StripeUnits: []int64{4 << 10},
		Kernels:     []string{"auto"},
		Faults:      []string{"none"},
	})
	fig7a := figure("fig7")[0]
	for i, bs := range opt.BlockSizes {
		for j, sc := range Schemes() {
			k := figureKey(sc.Name, rand, workload.Write, bs)
			if got, want := fig7a.Rows[i][j+1], f1(cell(r, k).MBps); got != want {
				t.Errorf("fig7a %s at %s = %s MB/s, sweep cell %s = %s", sc.Name, bsLabel(bs), got, k.ID(), want)
			}
		}
	}
	fig18 := figure("fig18")
	for ti, op := range []workload.Op{workload.Read, workload.Write} {
		for i, bs := range opt.BlockSizes {
			for j, sc := range []string{bareSSD, "3-Rep", "RS(6,3)", "RS(10,4)"} {
				want := ratio(cell(r, figureKey(sc, rand, op, bs)).MBps, cell(r, figureKey(sc, seq, op, bs)).MBps)
				if got := fig18[ti].Rows[i][j+1]; got != want {
					t.Errorf("%s %s at %s = %s, sweep cells' rand/seq = %s", fig18[ti].ID, sc, bsLabel(bs), got, want)
				}
			}
		}
	}
	// Fig 18's claims are report checks over the same cells: each divides
	// one scheme's rand/seq MB/s by another's.
	var metrics []string
	for _, c := range r.Checks {
		if c.Figure != "fig18" {
			continue
		}
		metrics = append(metrics, c.Metric)
		var mbps []float64
		for _, id := range c.Cells {
			mbps = append(mbps, r.Cell(id).MBps)
		}
		if len(mbps) != 4 || c.Measured != mbps[0]/mbps[1]/(mbps[2]/mbps[3]) {
			t.Errorf("fig18/%s measured %v over cells %v", c.Metric, c.Measured, c.Cells)
		}
	}
	if got, want := strings.Join(metrics, " "), "rep_over_ssd rs63_over_rep rs104_over_rep rs63_write_over_ssd rs104_write_over_ssd"; got != want {
		t.Errorf("fig18 report checks = %q, want %q", got, want)
	}

	// rows checks a time-series table against the samples it projects.
	rows := func(tb Table, samples []workload.Sample, row func(i int, sm workload.Sample) []string) {
		t.Helper()
		if len(samples) == 0 || len(tb.Rows) != len(samples) {
			t.Fatalf("%s has %d rows, its cell %d samples", tb.ID, len(tb.Rows), len(samples))
		}
		for i, sm := range samples {
			if got, want := strings.Join(tb.Rows[i], " "), strings.Join(row(i, sm), " "); got != want {
				t.Errorf("%s row %d = %q, sample %q", tb.ID, i, got, want)
			}
		}
	}
	s19 := sweep(Grid{Schemes: []string{"3-Rep", "RS(6,3)"}, Patterns: []string{seq.String()},
		Ops: []string{workload.Write.String()}, BlockSizes: []int64{16 << 10}, StripeUnits: []int64{4 << 10},
		Kernels: []string{"auto"}, Variants: []string{"series"}})
	ec := cell(s19, seriesKey("RS(6,3)", seq, 16<<10, "series")).Samples
	rows(figure("fig19")[0], cell(s19, seriesKey("3-Rep", seq, 16<<10, "series")).Samples, func(i int, sm workload.Sample) []string {
		return []string{seconds(sm.Second), f1(sm.MBps), f1(ec[i].MBps)}
	})
	s20 := sweep(Grid{Schemes: []string{"RS(6,3)"}, Patterns: []string{rand.String()},
		Ops: []string{workload.Write.String()}, BlockSizes: []int64{4 << 10}, StripeUnits: []int64{4 << 10},
		Kernels: []string{"auto"}, Variants: []string{"series", "prefill-writes"}})
	for ti, v := range s20.Grid.Variants {
		rows(figure("fig20")[ti], cell(s20, seriesKey("RS(6,3)", rand, 4<<10, v)).Samples, func(_ int, sm workload.Sample) []string {
			return []string{seconds(sm.Second), f1(sm.MBps), fmt.Sprintf("%.0f", sm.CtxPerSec),
				f2(sm.UserCPU * 100), f2(sm.KernelCPU * 100), f2(sm.PrivateRx / (1 << 20))}
		})
	}
}

// TestSeriesCellIsItsBaseCell: sampling observes a run and changes nothing
// in it. A "series" cell equals its base cell field for field, except for
// its identity, its samples and the sampler's own engine events: one per
// tick, ten in the window and one past its end.
func TestSeriesCellIsItsBaseCell(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs are slow")
	}
	s, err := NewSuite(microSweepOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The figures' write cells: Fig 19's 16 KiB sequential, Fig 20's
	// 4 KiB random, each with and without a paper-band check.
	r, err := s.RunSweep("micro", Grid{
		Schemes:     []string{"3-Rep", "RS(6,3)"},
		Patterns:    []string{workload.Sequential.String(), workload.Random.String()},
		Ops:         []string{workload.Write.String()},
		BlockSizes:  []int64{4 << 10, 16 << 10},
		StripeUnits: []int64{4 << 10},
		Kernels:     []string{"auto"},
		Variants:    []string{"base", "series"},
	}, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range r.Cells {
		if base.Variant != "" {
			continue
		}
		series := r.Cell(base.ID + "/series")
		if series == nil || len(series.Samples) != 10 {
			t.Fatalf("%s/series: %+v, want 10 samples", base.ID, series)
		}
		for _, d := range diffCell(base, *series) {
			if d.Field != "id" && d.Field != "variant" && d.Field != "samples" && d.Field != "engine_events" {
				t.Errorf("sampling moved %s", d)
			}
		}
		if got := series.EngineEvents - base.EngineEvents; got != 11 {
			t.Errorf("%s: sampling added %d engine events, want 11", base.ID, got)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tb := Table{
		ID: "t", Title: "demo",
		Columns: []string{"bs", "v"},
		Rows:    [][]string{{"4KB", "1.5"}},
		Notes:   []string{"hello"},
	}
	text := tb.Format()
	for _, want := range []string{"demo", "4KB", "1.5", "note: hello"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Format missing %q:\n%s", want, text)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "bs,v\n4KB,1.5\n") {
		t.Fatalf("CSV = %q", csv)
	}
}

func TestBsLabel(t *testing.T) {
	if bsLabel(4096) != "4KB" || bsLabel(2<<20) != "2MB" {
		t.Fatal("bsLabel wrong")
	}
}

func TestUnknownFigure(t *testing.T) {
	s := tinySuite(t)
	if _, err := s.RunFigure("fig99"); err == nil {
		t.Fatal("unknown figure must error")
	}
}

func TestFigureIDsCovered(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 17 {
		t.Fatalf("expected 17 reproducible figures, got %d", len(ids))
	}
}

// TestCalibrationInvariants asserts the qualitative shapes of the paper's
// findings on the figure cells at tiny scale: who wins, in which
// direction, by roughly what kind of factor. These bands are deliberately
// wide — they guard the mechanisms, not the exact numbers.
func TestCalibrationInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run is slow")
	}
	s := tinySuite(t)
	const bs = 4096
	var keys []CellKey
	for _, sc := range Schemes()[:2] {
		for _, pat := range []workload.Pattern{workload.Sequential, workload.Random} {
			for _, op := range []workload.Op{workload.Read, workload.Write} {
				keys = append(keys, figureKey(sc.Name, pat, op, bs))
			}
		}
	}
	if _, err := s.cellReports(keys...); err != nil { // run side by side
		t.Fatal(err)
	}
	cell := func(scheme int, pat workload.Pattern, op workload.Op) CellReport {
		c, err := s.cellReports(figureKey(Schemes()[scheme].Name, pat, op, bs))
		if err != nil {
			t.Fatal(err)
		}
		return c[0]
	}
	rep, rs63 := 0, 1

	t.Run("seq write: EC several times slower than replication (paper 8.6x)", func(t *testing.T) {
		r := cell(rep, workload.Sequential, workload.Write).MBps
		e := cell(rs63, workload.Sequential, workload.Write).MBps
		if ratio := r / e; ratio < 2 || ratio > 40 {
			t.Errorf("3-Rep/RS(6,3) seq-write ratio = %.1f, want in [2,40]", ratio)
		}
	})
	t.Run("rand write: EC slower than replication (paper 3.4x)", func(t *testing.T) {
		r := cell(rep, workload.Random, workload.Write).MBps
		e := cell(rs63, workload.Random, workload.Write).MBps
		if ratio := r / e; ratio < 1.5 || ratio > 40 {
			t.Errorf("3-Rep/RS(6,3) rand-write ratio = %.1f, want in [1.5,40]", ratio)
		}
	})
	t.Run("rand read: schemes within ~25% (paper <10%)", func(t *testing.T) {
		r := cell(rep, workload.Random, workload.Read).MBps
		e := cell(rs63, workload.Random, workload.Read).MBps
		if ratio := r / e; ratio < 0.75 || ratio > 1.34 {
			t.Errorf("rand-read ratio = %.2f, want ~1", ratio)
		}
	})
	t.Run("read degradation much milder than write degradation", func(t *testing.T) {
		wRatio := cell(rep, workload.Sequential, workload.Write).MBps / cell(rs63, workload.Sequential, workload.Write).MBps
		rRatio := cell(rep, workload.Sequential, workload.Read).MBps / cell(rs63, workload.Sequential, workload.Read).MBps
		if wRatio <= rRatio {
			t.Errorf("write degradation (%.1fx) must exceed read degradation (%.1fx)", wRatio, rRatio)
		}
	})
	t.Run("EC rand-read amp ~ stripe/bs (paper 6.9x vs 3-Rep at 4KB)", func(t *testing.T) {
		e := cell(rs63, workload.Random, workload.Read).DevReadPerReq
		r := cell(rep, workload.Random, workload.Read).DevReadPerReq
		if e < 3 || e > 9 {
			t.Errorf("RS(6,3) rand-read amp = %.1f, want ~6", e)
		}
		if r > 1.5 {
			t.Errorf("3-Rep rand-read amp = %.1f, want ~1", r)
		}
	})
	t.Run("EC write amp far above replication (paper up to 55x more)", func(t *testing.T) {
		e := cell(rs63, workload.Random, workload.Write).DevWritePerReq
		r := cell(rep, workload.Random, workload.Write).DevWritePerReq
		if r < 3 || r > 12 {
			t.Errorf("3-Rep rand-write amp = %.1f, want ~3-10", r)
		}
		if e/r < 4 {
			t.Errorf("RS(6,3)/3-Rep write-amp ratio = %.1f, want >= 4", e/r)
		}
	})
	t.Run("replicated reads leave private network idle; EC reads do not (Fig 17)", func(t *testing.T) {
		r := cell(rep, workload.Random, workload.Read).NetPerReq
		e := cell(rs63, workload.Random, workload.Read).NetPerReq
		if r > 0.1 {
			t.Errorf("3-Rep read private/req = %.2f, want ~0", r)
		}
		if e < 1 {
			t.Errorf("RS(6,3) read private/req = %.2f, want chunk pulls >= 1", e)
		}
	})
	t.Run("3-Rep write private traffic ~2x request (replica pushes)", func(t *testing.T) {
		r := cell(rep, workload.Random, workload.Write).NetPerReq
		if r < 1.8 || r > 3 {
			t.Errorf("3-Rep write private/req = %.2f, want ~2", r)
		}
	})
	t.Run("EC needs more CPU and context switches per MB for writes", func(t *testing.T) {
		rc := cell(rep, workload.Random, workload.Write)
		ec := cell(rs63, workload.Random, workload.Write)
		if ec.CtxPerMB <= rc.CtxPerMB {
			t.Errorf("EC ctx/MB (%.0f) must exceed replication's (%.0f)", ec.CtxPerMB, rc.CtxPerMB)
		}
	})
	t.Run("user-mode CPU dominates (paper: 70-75%)", func(t *testing.T) {
		c := cell(rs63, workload.Random, workload.Write)
		user, kern := c.UserCPU, c.KernelCPU
		if share := user / (user + kern); share < 0.55 || share > 0.9 {
			t.Errorf("user share = %.2f, want ~0.7", share)
		}
	})
}

func TestBareSSDRandSeqRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := tinySuite(t)
	c, err := s.cellReports(figureKey(bareSSD, workload.Sequential, workload.Read, 4096),
		figureKey(bareSSD, workload.Random, workload.Read, 4096))
	if err != nil {
		t.Fatal(err)
	}
	seq, rnd := c[0], c[1]
	// Paper Fig 18: the bare SSD's random throughput never beats sequential.
	if ratio := rnd.MBps / seq.MBps; ratio > 1.05 {
		t.Fatalf("bare SSD rand/seq = %.2f, want <= 1", ratio)
	}
	if seq.MBps == 0 || rnd.MBps == 0 || seq.EngineEvents == 0 {
		t.Fatal("bare SSD produced no throughput")
	}
}

// TestFig19ShowsECStalls renders Fig 19 at tiny scale: enough rows, and a
// time column that reads strictly increasing.
func TestFig19ShowsECStalls(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := tinySuite(t)
	tables, err := s.RunFigure("fig19")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) < 5 {
		t.Fatalf("fig19 shape wrong: %+v", tables)
	}
	last := -1.0
	for _, row := range tables[0].Rows {
		sec, err := strconv.ParseFloat(row[0], 64)
		if err != nil || sec <= last {
			t.Fatalf("fig19 t(s) column %q after %v: not strictly increasing (%v)", row[0], last, err)
		}
		last = sec
	}
}
