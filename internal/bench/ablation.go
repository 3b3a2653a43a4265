package bench

import (
	"fmt"
	"strings"

	"ecarray/internal/workload"
)

// Ablations isolate the mechanisms the cost model is built from (`ecbench
// -ablations`, README "ecbench scales and modes"): each experiment
// switches one mechanism off (or sweeps one parameter) and reports how a
// headline metric moves, demonstrating that the reproduced behaviour comes
// from the modeled mechanism and not from an unrelated artifact.
//
// An ablation is a grid and a table rendered from its cells. The cells are
// sweep cells, run and cached through the suite's one cell path like a
// figure's, so RunSweep also runs, shards and merges an ablation's grid.
// Variant rows share their base cell's seed (CellKey.seed), so a row
// differs from its base row only by the mechanism the variant switches.
type ablation struct {
	title   string
	columns []string
	notes   []string
	grid    Grid
	// rows renders the table body from the grid's cells, in Cells() order.
	rows func(s *Suite, cells []CellReport) [][]string
}

// ablationGrid is one healthy (pattern, op, block size) cell shape over
// the given schemes, stripe units and variants.
func ablationGrid(schemes []string, pattern workload.Pattern, op workload.Op, bs int64, units []int64, variants ...string) Grid {
	return Grid{Schemes: schemes, Patterns: []string{pattern.String()}, Ops: []string{op.String()},
		BlockSizes: []int64{bs}, StripeUnits: units, Kernels: []string{"auto"}, Variants: variants}
}

// onOff labels a row by whether its cell runs the base config.
func onOff(c CellReport) string {
	if c.Variant == "" {
		return "on"
	}
	return "off"
}

// ablations are the experiments by ID; AblationIDs gives their order.
var ablations = map[string]ablation{
	"stripe-width": {
		// The paper's §VIII notes that increasing the stripe width almost
		// linearly increases encoding and decoding latency; here a larger
		// unit multiplies the data a sub-stripe write must read, encode and
		// rewrite.
		title:   "Stripe-unit sweep, RS(6,3) 4KB random writes (paper §VIII discussion)",
		columns: []string{"stripe unit", "stripe width", "MB/s", "lat ms", "dev-write/req"},
		notes: []string{
			"wider stripes amplify sub-stripe updates: more old data read, more chunks rewritten",
			"rows are not seed-paired: the stripe unit is part of the cell ID, so each row runs its own cluster and I/O stream, and the dev-write/req rise mixes the mechanism with seed noise",
		},
		grid: ablationGrid([]string{"RS(6,3)"}, workload.Random, workload.Write, 4<<10, []int64{4 << 10, 8 << 10, 16 << 10}),
		rows: func(_ *Suite, cells []CellReport) (rows [][]string) {
			for _, c := range cells {
				rows = append(rows, []string{bsLabel(c.StripeUnit), bsLabel(6 * c.StripeUnit),
					f1(c.MBps), f2(c.MeanLatencyUS / 1e3), f2(c.DevWritePerReq)})
			}
			return rows
		},
	},
	"stripe-cache": {
		// Without the primary's stripe cache, sequential EC reads lose their
		// reuse and devolve to per-request stripe fetches, inflating private
		// traffic (the paper's Fig 15a vs 15b contrast).
		title:   "Stripe cache on/off, RS(6,3) 16KB sequential reads",
		columns: []string{"stripe cache", "MB/s", "dev-read/req", "privnet/req"},
		notes:   []string{"without the cache every sequential request refetches its stripe from k OSDs"},
		grid:    ablationGrid([]string{"RS(6,3)"}, workload.Sequential, workload.Read, 16<<10, []int64{4 << 10}, "base", "cache-off"),
		rows: func(_ *Suite, cells []CellReport) (rows [][]string) {
			for _, c := range cells {
				rows = append(rows, []string{onOff(c), f1(c.MBps), f2(c.DevReadPerReq), f2(c.NetPerReq)})
			}
			return rows
		},
	},
	"wal": {
		// Without deferred-write journaling, small-write device
		// amplification should drop by roughly the journal's share (§VI-A).
		title:   "Deferred-write journal on/off, 3-Rep 4KB random writes",
		columns: []string{"WAL", "MB/s", "dev-write/req"},
		notes:   []string{"journaling roughly doubles small-write device traffic"},
		grid:    ablationGrid([]string{"3-Rep"}, workload.Random, workload.Write, 4<<10, []int64{4 << 10}, "base", "wal-off"),
		rows: func(_ *Suite, cells []CellReport) (rows [][]string) {
			for _, c := range cells {
				rows = append(rows, []string{onOff(c), f1(c.MBps), f2(c.DevWritePerReq)})
			}
			return rows
		},
	},
	"client-cap": {
		// The client librbd dispatch serialization is the mechanism that
		// makes single-client 4KB random reads nearly identical across
		// schemes (§IV-B). Without it the schemes separate.
		title:   "Client dispatch serialization on/off, 4KB random reads",
		columns: []string{"client serial", "3-Rep MB/s", "RS(6,3) MB/s", "ratio"},
		notes:   []string{"the shared client dispatch path explains the paper's <10% random-read difference"},
		grid:    ablationGrid([]string{"3-Rep", "RS(6,3)"}, workload.Random, workload.Read, 4<<10, []int64{4 << 10}, "base", "cap-off"),
		rows: func(_ *Suite, cells []CellReport) (rows [][]string) {
			rep, ec := cells[:2], cells[2:] // per scheme: base, cap-off
			for i := range rep {
				rows = append(rows, []string{onOff(rep[i]), f1(rep[i].MBps), f1(ec[i].MBps), ratio(rep[i].MBps, ec[i].MBps)})
			}
			return rows
		},
	},
	"pg-count": {
		// Fewer PGs concentrate the lock contention that gives random
		// accesses their advantage (§VII-A).
		title:   "PG-count sweep, RS(6,3) 4KB random writes",
		columns: []string{"PGs", "MB/s", "lat ms"},
		notes:   []string{"more PGs spread the PG-lock serialization that throttles random writes"},
		grid:    ablationGrid([]string{"RS(6,3)"}, workload.Random, workload.Write, 4<<10, []int64{4 << 10}, "pgs-16", "pgs-128", "base"),
		rows: func(s *Suite, cells []CellReport) (rows [][]string) {
			for _, c := range cells {
				pgs := strings.TrimPrefix(c.Variant, "pgs-")
				if pgs == "" {
					pgs = fmt.Sprint(s.Opt.PGs)
				}
				rows = append(rows, []string{pgs, f1(c.MBps), f2(c.MeanLatencyUS / 1e3)})
			}
			return rows
		},
	},
}

// AblationIDs lists the available experiments.
func AblationIDs() []string {
	return []string{"stripe-width", "stripe-cache", "wal", "client-cap", "pg-count"}
}

// RunAblation executes one ablation and returns its table. As with
// figures, calibrated runs stamp the table with the measured-codec
// provenance note.
func (s *Suite) RunAblation(id string) (Table, error) {
	a, ok := ablations[id]
	if !ok {
		return Table{}, fmt.Errorf("bench: unknown ablation %q", id)
	}
	cells, err := s.cellReports(a.grid.Cells()...)
	if err != nil {
		return Table{}, err
	}
	t := Table{ID: "ablation-" + id, Title: a.title, Columns: a.columns,
		Rows: a.rows(s, cells), Notes: a.notes}
	if s.Opt.CalibrateEncode {
		t.Notes = append(t.Notes, s.CalibrationNotes()...)
	}
	return t, nil
}

// RunAllAblations executes every ablation.
func (s *Suite) RunAllAblations() ([]Table, error) {
	var out []Table
	for _, id := range AblationIDs() {
		t, err := s.RunAblation(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, t)
	}
	return out, nil
}
