package main

import (
	"strings"
	"testing"
)

// TestQuickstart runs the example twice: the runs must print the same
// bytes, and the payload must come back intact through RS(6,3).
func TestQuickstart(t *testing.T) {
	var first, second strings.Builder
	run(&first)
	run(&second)
	if first.String() != second.String() {
		t.Fatalf("two runs differ:\n%s\n---\n%s", first.String(), second.String())
	}
	if !strings.Contains(first.String(), "wrote and verified 1 MiB through RS(6,3)") {
		t.Errorf("no verified round trip in:\n%s", first.String())
	}
}
