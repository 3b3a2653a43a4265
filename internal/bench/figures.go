package bench

import (
	"fmt"
	"strconv"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/workload"
)

// FigureIDs lists every reproducible figure in paper order.
func FigureIDs() []string {
	return []string{
		"fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20",
	}
}

// RunFigure produces the table(s) reproducing one paper figure, running
// (or reusing) the suite cells it needs. With CalibrateEncode on, every
// table carries a note naming the measured codec throughput and kernel
// tier behind its encode costs (propagated into CSV output too).
func (s *Suite) RunFigure(id string) ([]Table, error) {
	tables, err := s.runFigure(id)
	if err != nil {
		return nil, err
	}
	if s.Opt.CalibrateEncode {
		notes := s.CalibrationNotes()
		for i := range tables {
			tables[i].Notes = append(tables[i].Notes, notes...)
		}
	}
	return tables, nil
}

func (s *Suite) runFigure(id string) ([]Table, error) {
	switch id {
	case "fig1":
		return s.fig1()
	case "fig5":
		return s.perfFigure("fig5", "Sequential write performance (paper Fig 5)", workload.Sequential, workload.Write)
	case "fig6":
		return s.perfFigure("fig6", "Sequential read performance (paper Fig 6)", workload.Sequential, workload.Read)
	case "fig7":
		return s.perfFigure("fig7", "Random write performance (paper Fig 7)", workload.Random, workload.Write)
	case "fig8":
		return s.perfFigure("fig8", "Random read performance (paper Fig 8)", workload.Random, workload.Read)
	case "fig9":
		return s.cpuFigure("fig9", "CPU utilization by writes (paper Fig 9)", workload.Write)
	case "fig10":
		return s.cpuFigure("fig10", "CPU utilization by reads (paper Fig 10)", workload.Read)
	case "fig11":
		return s.patternFigure("fig11", "Context switches per MB, writes (paper Fig 11) — %s (switches/MB)", workload.Write, ctxPerMB)
	case "fig12":
		return s.patternFigure("fig12", "Context switches per MB, reads (paper Fig 12) — %s (switches/MB)", workload.Read, ctxPerMB)
	case "fig13":
		return s.ampFigure("fig13", "I/O amplification, sequential writes (paper Fig 13)", workload.Sequential, workload.Write)
	case "fig14":
		return s.ampFigure("fig14", "I/O amplification, random writes (paper Fig 14)", workload.Random, workload.Write)
	case "fig15":
		return s.patternFigure("fig15", "Read volumes normalized to input, %s reads (paper Fig 15)", workload.Read,
			func(c CellReport) string { return f2(c.DevReadPerReq) })
	case "fig16":
		return s.patternFigure("fig16", "Private network traffic per request, writes (paper Fig 16) — %s (private bytes / requested bytes)", workload.Write, netPerReq)
	case "fig17":
		return s.patternFigure("fig17", "Private network traffic per request, reads (paper Fig 17) — %s (private bytes / requested bytes)", workload.Read, netPerReq)
	case "fig18":
		return s.fig18()
	case "fig19":
		return s.fig19()
	case "fig20":
		return s.fig20()
	}
	return nil, fmt.Errorf("bench: unknown figure %q", id)
}

// RunAll reproduces every figure.
func (s *Suite) RunAll() ([]Table, error) {
	var out []Table
	for _, id := range FigureIDs() {
		ts, err := s.RunFigure(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, ts...)
	}
	return out, nil
}

// figureKey is the sweep cell a figure reads for one (scheme, pattern, op,
// block size): the paper's 4 KiB stripe unit on a healthy cluster.
func figureKey(scheme string, pattern workload.Pattern, op workload.Op, bs int64) CellKey {
	return CellKey{Scheme: scheme, Pattern: pattern.String(), Op: op.String(),
		BlockSize: bs, StripeUnit: core.DefaultConfig().StripeUnit, Kernel: "auto", Fault: "none"}
}

// cellReports returns the reports of the given cells from the suite's one
// cell path, running the missing ones side by side.
func (s *Suite) cellReports(keys ...CellKey) ([]CellReport, error) {
	outcomes, err := s.cells(keys, nil)
	if err != nil {
		return nil, err
	}
	reports := make([]CellReport, len(outcomes))
	for i, o := range outcomes {
		reports[i] = o.report
	}
	return reports, nil
}

// sweep gathers the three schemes' cells for a (pattern, op) family, one
// per suite block size.
func (s *Suite) sweep(pattern workload.Pattern, op workload.Op) (map[string][]CellReport, error) {
	var keys []CellKey
	for _, sc := range Schemes() {
		for _, bs := range s.Opt.BlockSizes {
			keys = append(keys, figureKey(sc.Name, pattern, op, bs))
		}
	}
	reports, err := s.cellReports(keys...)
	if err != nil {
		return nil, err
	}
	out := map[string][]CellReport{}
	for i, k := range keys {
		out[k.Scheme] = append(out[k.Scheme], reports[i])
	}
	return out, nil
}

func (s *Suite) perfFigure(id, title string, pattern workload.Pattern, op workload.Op) ([]Table, error) {
	cells, err := s.sweep(pattern, op)
	if err != nil {
		return nil, err
	}
	thr := Table{ID: id + "a", Title: title + " — throughput (MB/s)",
		Columns: []string{"bs", "3-Rep", "RS(6,3)", "RS(10,4)"}}
	lat := Table{ID: id + "b", Title: title + " — mean latency (ms)",
		Columns: []string{"bs", "3-Rep", "RS(6,3)", "RS(10,4)"}}
	for i, bs := range s.Opt.BlockSizes {
		thr.Rows = append(thr.Rows, []string{bsLabel(bs),
			f1(cells["3-Rep"][i].MBps), f1(cells["RS(6,3)"][i].MBps), f1(cells["RS(10,4)"][i].MBps)})
		lat.Rows = append(lat.Rows, []string{bsLabel(bs),
			f2(cells["3-Rep"][i].MeanLatencyUS / 1e3), f2(cells["RS(6,3)"][i].MeanLatencyUS / 1e3), f2(cells["RS(10,4)"][i].MeanLatencyUS / 1e3)})
	}
	return []Table{thr, lat}, nil
}

func (s *Suite) cpuFigure(id, title string, op workload.Op) ([]Table, error) {
	var out []Table
	for _, pat := range []workload.Pattern{workload.Sequential, workload.Random} {
		cells, err := s.sweep(pat, op)
		if err != nil {
			return nil, err
		}
		t := Table{
			ID:    fmt.Sprintf("%s%s", id, map[workload.Pattern]string{workload.Sequential: "a", workload.Random: "b"}[pat]),
			Title: fmt.Sprintf("%s — %s (%%CPU user/system)", title, pat),
			Columns: []string{"bs", "3-Rep user", "3-Rep sys",
				"RS(6,3) user", "RS(6,3) sys", "RS(10,4) user", "RS(10,4) sys"},
		}
		for i, bs := range s.Opt.BlockSizes {
			row := []string{bsLabel(bs)}
			for _, sc := range []string{"3-Rep", "RS(6,3)", "RS(10,4)"} {
				c := cells[sc][i]
				row = append(row, f2(c.UserCPU*100), f2(c.KernelCPU*100))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out, nil
}

// patternFigure renders one cell field of a (pattern, op) family: table
// <id>a for sequential and <id>b for random requests, titled by format
// with the pattern, a row per block size and a column per scheme.
func (s *Suite) patternFigure(id, format string, op workload.Op, field func(CellReport) string) ([]Table, error) {
	var out []Table
	for _, pat := range []workload.Pattern{workload.Sequential, workload.Random} {
		cells, err := s.sweep(pat, op)
		if err != nil {
			return nil, err
		}
		t := Table{
			ID:      id + map[workload.Pattern]string{workload.Sequential: "a", workload.Random: "b"}[pat],
			Title:   fmt.Sprintf(format, pat),
			Columns: []string{"bs", "3-Rep", "RS(6,3)", "RS(10,4)"},
		}
		for i, bs := range s.Opt.BlockSizes {
			t.Rows = append(t.Rows, []string{bsLabel(bs),
				field(cells["3-Rep"][i]), field(cells["RS(6,3)"][i]), field(cells["RS(10,4)"][i])})
		}
		out = append(out, t)
	}
	return out, nil
}

func ctxPerMB(c CellReport) string  { return f1(c.CtxPerMB) }
func netPerReq(c CellReport) string { return f2(c.NetPerReq) }

func (s *Suite) ampFigure(id, title string, pattern workload.Pattern, op workload.Op) ([]Table, error) {
	cells, err := s.sweep(pattern, op)
	if err != nil {
		return nil, err
	}
	rd := Table{ID: id + "a", Title: title + " — device reads / requested bytes",
		Columns: []string{"bs", "3-Rep", "RS(6,3)", "RS(10,4)"}}
	wr := Table{ID: id + "b", Title: title + " — device writes / requested bytes",
		Columns: []string{"bs", "3-Rep", "RS(6,3)", "RS(10,4)"}}
	for i, bs := range s.Opt.BlockSizes {
		rd.Rows = append(rd.Rows, []string{bsLabel(bs),
			f2(cells["3-Rep"][i].DevReadPerReq), f2(cells["RS(6,3)"][i].DevReadPerReq), f2(cells["RS(10,4)"][i].DevReadPerReq)})
		wr.Rows = append(wr.Rows, []string{bsLabel(bs),
			f2(cells["3-Rep"][i].DevWritePerReq), f2(cells["RS(6,3)"][i].DevWritePerReq), f2(cells["RS(10,4)"][i].DevWritePerReq)})
	}
	return []Table{rd, wr}, nil
}

// fig1 computes the paper's summary chart: RS(10,4) normalized to 3-Rep for
// 4 KB random requests across all six viewpoints.
func (s *Suite) fig1() ([]Table, error) {
	const bs = 4 << 10
	rep, ec := Schemes()[0].Name, Schemes()[2].Name
	c, err := s.cellReports(
		figureKey(rep, workload.Random, workload.Read, bs), figureKey(rep, workload.Random, workload.Write, bs),
		figureKey(ec, workload.Random, workload.Read, bs), figureKey(ec, workload.Random, workload.Write, bs))
	if err != nil {
		return nil, err
	}
	repR, repW, ecR, ecW := c[0], c[1], c[2], c[3]
	t := Table{
		ID:      "fig1",
		Title:   "RS(10,4) normalized to 3-Replication, 4KB random requests (paper Fig 1)",
		Columns: []string{"metric", "read", "write", "paper read", "paper write"},
		Rows: [][]string{
			{"throughput", ratio(ecR.MBps, repR.MBps), ratio(ecW.MBps, repW.MBps), "0.67", "0.14"},
			{"latency", ratio(ecR.MeanLatencyUS, repR.MeanLatencyUS), ratio(ecW.MeanLatencyUS, repW.MeanLatencyUS), "1.5", "7.6"},
			{"CPU utilization", ratio(ecR.UserCPU+ecR.KernelCPU, repR.UserCPU+repR.KernelCPU),
				ratio(ecW.UserCPU+ecW.KernelCPU, repW.UserCPU+repW.KernelCPU), "10.7", "1.9"},
			{"context switches/MB", ratio(ecR.CtxPerMB, repR.CtxPerMB), ratio(ecW.CtxPerMB, repW.CtxPerMB), "12.6", "4.7-7.1"},
			{"private network/req", ratio(ecR.NetPerReq, repR.NetPerReq), ratio(ecW.NetPerReq, repW.NetPerReq), ">>1 (rep ~0)", "37.8-74.7"},
			{"I/O amplification", ratio(ecR.DevReadPerReq, repR.DevReadPerReq), ratio(ecW.DevWritePerReq, repW.DevWritePerReq), "10.4", "57.7"},
		},
		Notes: []string{"paper columns quote Fig 1 / §IV-§VI headline values"},
	}
	return []Table{t}, nil
}

// fig18 compares random/sequential throughput ratios of the cluster schemes
// against a bare SSD (paper §VII-A placement-group parallelism).
func (s *Suite) fig18() ([]Table, error) {
	schemes := []string{bareSSD, "3-Rep", "RS(6,3)", "RS(10,4)"}
	var out []Table
	for _, op := range []workload.Op{workload.Read, workload.Write} {
		var keys []CellKey
		for _, bs := range s.Opt.BlockSizes {
			for _, sc := range schemes {
				keys = append(keys, figureKey(sc, workload.Random, op, bs), figureKey(sc, workload.Sequential, op, bs))
			}
		}
		c, err := s.cellReports(keys...)
		if err != nil {
			return nil, err
		}
		t := Table{
			ID:      fmt.Sprintf("fig18%s", map[workload.Op]string{workload.Read: "a", workload.Write: "b"}[op]),
			Title:   fmt.Sprintf("Random/sequential throughput ratio, %s (paper Fig 18)", op),
			Columns: []string{"bs", "SSD", "3-Rep", "RS(6,3)", "RS(10,4)"},
		}
		for i, bs := range s.Opt.BlockSizes {
			row := []string{bsLabel(bs)}
			for j := range schemes {
				n := 2 * (i*len(schemes) + j)
				row = append(row, ratio(c[n].MBps, c[n+1].MBps))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out, nil
}

// seriesKey is the write cell of a time-series figure: figureKey's cell
// under a sampling variant ("series" or "prefill-writes").
func seriesKey(scheme string, pattern workload.Pattern, bs int64, variant string) CellKey {
	k := figureKey(scheme, pattern, workload.Write, bs)
	k.Variant = variant
	return k
}

// seconds labels a time-series row with its sample time, in as many
// decimals as the time needs, so consecutive rows always differ.
func seconds(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// fig19 reproduces the 16 KB sequential-write time series showing EC's
// periodic object-initialization stalls (paper §VII-B).
func (s *Suite) fig19() ([]Table, error) {
	c, err := s.cellReports(seriesKey("3-Rep", workload.Sequential, 16<<10, "series"),
		seriesKey("RS(6,3)", workload.Sequential, 16<<10, "series"))
	if err != nil {
		return nil, err
	}
	rep, ec := c[0].Samples, c[1].Samples
	t := Table{
		ID:      "fig19",
		Title:   "Sequential 16KB write time series — object management stalls (paper Fig 19)",
		Columns: []string{"t(s)", "3-Rep MB/s", "RS(6,3) MB/s"},
	}
	for i := range min(len(rep), len(ec)) {
		t.Rows = append(t.Rows, []string{seconds(rep[i].Second), f1(rep[i].MBps), f1(ec[i].MBps)})
	}
	t.Notes = append(t.Notes, "RS(6,3) throughput dips when sequential writes cross into uninitialized objects")
	return []Table{t}, nil
}

// fig20 reproduces the pristine-vs-overwrite random-write time series
// (paper §VII-B): object initialization makes the pristine phase slower,
// with lower CPU/context switches but far higher private network traffic.
func (s *Suite) fig20() ([]Table, error) {
	c, err := s.cellReports(seriesKey("RS(6,3)", workload.Random, 4<<10, "series"),
		seriesKey("RS(6,3)", workload.Random, 4<<10, "prefill-writes"))
	if err != nil {
		return nil, err
	}
	mk := func(id, title string, samples []workload.Sample) Table {
		t := Table{
			ID:      id,
			Title:   title,
			Columns: []string{"t(s)", "MB/s", "ctx/s", "user%", "sys%", "privnet MB/s"},
		}
		for _, sm := range samples {
			t.Rows = append(t.Rows, []string{
				seconds(sm.Second), f1(sm.MBps), fmt.Sprintf("%.0f", sm.CtxPerSec),
				f2(sm.UserCPU * 100), f2(sm.KernelCPU * 100),
				f2(sm.PrivateRx / (1 << 20)),
			})
		}
		return t
	}
	return []Table{
		mk("fig20a", "Random 4KB writes on pristine image (paper Fig 20 left)", c[0].Samples),
		mk("fig20b", "Random 4KB overwrites (paper Fig 20 right)", c[1].Samples),
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio formats a/b for a figure cell, "inf" when b is zero.
func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return f2(a / b)
}
