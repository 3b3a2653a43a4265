package main

import (
	"strings"
	"testing"
)

// TestFailure runs the example twice: the runs must print the same bytes,
// and the deep scrub must find and repair the one injected latent error.
// Every read-back in between is verified by the example itself.
func TestFailure(t *testing.T) {
	var first, second strings.Builder
	run(&first)
	run(&second)
	if first.String() != second.String() {
		t.Fatalf("two runs differ:\n%s\n---\n%s", first.String(), second.String())
	}
	if !strings.Contains(first.String(), "1 latent errors found, 1 shards repaired") {
		t.Errorf("scrub did not repair the injected error:\n%s", first.String())
	}
}
