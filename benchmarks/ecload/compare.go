package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// verdict is how one metric on one workload moved between two reports.
type verdict struct {
	workload, metric, unit string
	a, b                   float64 // medians
	na, nb                 int
	worseBy                float64 // share of a by which b is worse; negative = better
	spread                 float64 // widest interquartile range / median of either side; NaN with one run a side
	bound                  float64
	word                   string // "ok", "worse" or "unresolved"
}

// judge compares the untraced runs of two reports, per workload and
// end-to-end metric. A metric whose own run-to-run spread is wider than
// its bound cannot be called unchanged, so it is "unresolved".
func judge(a, b reportFile) []verdict {
	values := func(r reportFile, workload, metric string) []float64 {
		var out []float64
		for _, run := range r.Runs {
			if run.Workload == workload && run.Trace == 0 {
				if v, ok := run.Metrics[metric]; ok {
					out = append(out, v.Value)
				}
			}
		}
		return out
	}
	spreadOf := func(xs []float64) float64 {
		if len(xs) < 2 {
			return math.NaN()
		}
		q1, q3 := quartiles(xs)
		return ratio(q3-q1, math.Abs(median(xs)))
	}
	var out []verdict
	for _, w := range workloads {
		for _, s := range a.EndToEnd {
			va, vb := values(a, w.Name, s.Name), values(b, w.Name, s.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict{workload: w.Name, metric: s.Name, unit: s.Unit, bound: s.Bound,
				a: median(va), b: median(vb), na: len(va), nb: len(vb)}
			v.worseBy = ratio(v.b-v.a, math.Abs(v.a))
			if s.Better == "higher" {
				v.worseBy = -v.worseBy
			}
			v.spread = math.Max(spreadOf(va), spreadOf(vb)) // NaN if either side has one run
			switch {
			case v.spread > v.bound:
				v.word = "unresolved"
			case v.worseBy > v.bound:
				v.word = "worse"
			default:
				v.word = "ok"
			}
			out = append(out, v)
		}
	}
	return out
}

func loadReport(path string) (reportFile, error) {
	var r reportFile
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints the verdict table and returns the exit code: 1 when
// any metric is worse by more than its bound.
func compareFiles(pathA, pathB string) int {
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecload:", err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecload:", err)
		return 2
	}
	fmt.Printf("a: %s (%s)\nb: %s (%s)\n", pathA, a.Provenance.GitSHA, pathB, b.Provenance.GitSHA)
	fmt.Printf("%-13s %-27s %13s %13s %-6s %10s %8s %7s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "unit", "b worse by", "spread", "bound", "verdict")
	code := 0
	for _, v := range judge(a, b) {
		spread := "n/a"
		if !math.IsNaN(v.spread) {
			spread = fmt.Sprintf("%.1f%%", v.spread*100)
		}
		fmt.Printf("%-13s %-27s %13.6g %13.6g %-6s %+9.1f%% %8s %6.1f%%  %s (n=%d,%d)\n",
			v.workload, v.metric, v.a, v.b, v.unit, v.worseBy*100, spread, v.bound*100, v.word, v.na, v.nb)
		if v.word == "worse" {
			code = 1
		}
	}
	return code
}
