package main

import "testing"

func runsOf(workload string, values map[string][]float64) []result {
	var out []result
	for name, xs := range values {
		for i, x := range xs {
			if i >= len(out) {
				out = append(out, result{Workload: workload, Metrics: metricSet{}})
			}
			out[i].Metrics[name] = metric{Value: x}
		}
	}
	return out
}

func TestJudge(t *testing.T) {
	specs := []metricSpec{
		{"put_mbps", "MB/s", "higher", 0.10},
		{"put_p50_ms", "ms", "lower", 0.10},
		{"get_p50_ms", "ms", "lower", 0.15},
		{"cpu_ms_per_op", "ms", "lower", 0.10},
	}
	a := reportFile{EndToEnd: specs, Runs: runsOf(wlLarge, map[string][]float64{
		"put_mbps":      {100, 101, 99, 100},
		"put_p50_ms":    {40, 41, 40, 39},
		"get_p50_ms":    {60, 90, 45, 75}, // its own spread is wider than 15 %
		"cpu_ms_per_op": {30, 30, 31, 30},
	})}
	b := reportFile{EndToEnd: specs, Runs: runsOf(wlLarge, map[string][]float64{
		"put_mbps":      {80, 81, 79, 80}, // 20 % lower throughput: worse
		"put_p50_ms":    {42, 43, 42, 41}, // 5 % slower: inside the bound
		"get_p50_ms":    {61, 62, 60, 61},
		"cpu_ms_per_op": {20, 20, 21, 20}, // better
	})}
	// A traced run's values never count.
	b.Runs = append(b.Runs, result{Workload: wlLarge, Trace: 1, Metrics: metricSet{"put_p50_ms": {Value: 1000}}})

	want := map[string]string{"put_mbps": "worse", "put_p50_ms": "ok", "get_p50_ms": "unresolved", "cpu_ms_per_op": "ok"}
	got := judge(a, b)
	if len(got) != len(want) {
		t.Fatalf("%d verdicts, want %d: %+v", len(got), len(want), got)
	}
	for _, v := range got {
		if v.workload != wlLarge || v.word != want[v.metric] {
			t.Errorf("%s/%s: %s (worse by %.3f, spread %.3f), want %s", v.workload, v.metric, v.word, v.worseBy, v.spread, want[v.metric])
		}
	}
	for _, v := range got {
		if v.metric == "put_mbps" && (v.worseBy < 0.19 || v.worseBy > 0.21) {
			t.Errorf("put_mbps worse by %g, want 0.20 (direction: higher is better)", v.worseBy)
		}
		if v.metric == "cpu_ms_per_op" && v.worseBy >= 0 {
			t.Errorf("cpu_ms_per_op improved but worseBy = %g", v.worseBy)
		}
	}

	// One run a side: no spread to judge by, so the bound alone decides.
	one := judge(reportFile{EndToEnd: specs[:1], Runs: runsOf(wlSim, map[string][]float64{"put_mbps": {100}})},
		reportFile{EndToEnd: specs[:1], Runs: runsOf(wlSim, map[string][]float64{"put_mbps": {95}})})
	if len(one) != 1 || one[0].word != "ok" {
		t.Errorf("single runs: %+v", one)
	}
}
