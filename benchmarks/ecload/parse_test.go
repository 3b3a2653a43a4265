package main

import "testing"

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	text := "1234 (ec gate) (x)) S 1 1234 1234 0 -1 4194560 5000 0 3 0 731 269 0 0 20 0 9 0 100 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	user, sys, err := parseProcStat(text)
	if err != nil {
		t.Fatal(err)
	}
	if user != 7310 || sys != 2690 { // ticks of 10 ms
		t.Errorf("user %g ms sys %g ms, want 7310 and 2690", user, sys)
	}
	if _, _, err := parseProcStat("garbage"); err == nil {
		t.Error("no error for text without a command field")
	}
	if _, _, err := parseProcStat("1 (x) S 1 2"); err == nil {
		t.Error("no error for a truncated line")
	}
}

func TestParseProcStatus(t *testing.T) {
	text := "Name:\tecgate\nVmPeak:\t 1240000 kB\nVmHWM:\t   61440 kB\nVmRSS:\t   50000 kB\nThreads:\t9\nvoluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t25\n"
	hwm, ctx := parseProcStatus(text)
	if hwm != 61440 || ctx != 1525 {
		t.Errorf("VmHWM %d kB, switches %d; want 61440 and 1525", hwm, ctx)
	}
	if hwm, ctx := parseProcStatus("Name:\tkthreadd\n"); hwm != 0 || ctx != 0 {
		t.Errorf("missing lines read %d, %d; want 0, 0", hwm, ctx)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP ignored
ecgate_wal_records_total 42
ecgate_shard_seconds_bucket{op="put",le="0.005"} 7
ecgate_shard_seconds_sum{op="put"} 1.25
ecgate_shard_seconds_count{op="put"} 600
ecgate_shard_seconds_count{op="get"} 400
ecgate_shard_seconds_counter_like 9
ecgate_requests_total{op="get",code="200"} 1e+03
not a metric line
`
	m := parseProm(text)
	if m["ecgate_wal_records_total"] != 42 || m[`ecgate_shard_seconds_sum{op="put"}`] != 1.25 ||
		m[`ecgate_requests_total{op="get",code="200"}`] != 1000 {
		t.Errorf("parsed %v", m)
	}
	if _, ok := m["not a metric"]; ok {
		t.Error("a malformed line was kept")
	}
	if got := promSum(m, "ecgate_shard_seconds_count"); got != 1000 {
		t.Errorf("sum over label sets = %g, want 1000 (a longer name sharing the prefix must not count)", got)
	}
	if got := promSum(m, "ecgate_wal_records_total"); got != 42 {
		t.Errorf("unlabelled series = %g, want 42", got)
	}
	if got := promSum(m, "absent"); got != 0 {
		t.Errorf("absent family = %g, want 0", got)
	}
}
