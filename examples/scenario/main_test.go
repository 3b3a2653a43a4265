package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestScenario runs the example twice with 150 ms phases: the runs must
// print the same bytes, and repairing the EC pool must pull more than it
// rebuilds (k chunks per rebuilt one) while the replicated pool pulls
// exactly what it rebuilds.
func TestScenario(t *testing.T) {
	var first, second strings.Builder
	run(&first, 150*time.Millisecond)
	run(&second, 150*time.Millisecond)
	out := first.String()
	if out != second.String() {
		t.Fatalf("two runs differ:\n%s\n---\n%s", out, second.String())
	}
	pulled := map[string]float64{}
	rebuilt := map[string]float64{}
	re := regexp.MustCompile(`recovery (\w+) *: .* pulled ([\d.]+) MiB, rebuilt ([\d.]+) MiB`)
	for _, m := range re.FindAllStringSubmatch(out, -1) {
		pulled[m[1]], _ = strconv.ParseFloat(m[2], 64)
		rebuilt[m[1]], _ = strconv.ParseFloat(m[3], 64)
	}
	if rebuilt["ec"] <= 0 || pulled["ec"] < 2*rebuilt["ec"] || rebuilt["rep"] <= 0 || pulled["rep"] != rebuilt["rep"] {
		t.Errorf("repair traffic: pulled %v, rebuilt %v MiB; want ec to pull k-fold and rep 1:1:\n%s", pulled, rebuilt, out)
	}
}
