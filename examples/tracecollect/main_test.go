package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestTracecollect runs the example twice in a temporary directory: the
// runs must print the same bytes, and the trace parsed back from disk
// must hold every event the recorder wrote.
func TestTracecollect(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) }) //nolint:errcheck

	var first, second strings.Builder
	run(&first)
	run(&second)
	out := first.String()
	if out != second.String() {
		t.Fatalf("two runs differ:\n%s\n---\n%s", out, second.String())
	}
	var wrote, parsed int
	for _, line := range strings.Split(out, "\n") {
		fmt.Sscanf(line, "wrote %d block events", &wrote) //nolint:errcheck // checked below
		fmt.Sscanf(line, "  %d events across", &parsed)   //nolint:errcheck
	}
	if wrote == 0 || parsed != wrote {
		t.Errorf("wrote %d events, parsed back %d:\n%s", wrote, parsed, out)
	}
}
