package main

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestCharacterization runs the example twice with a 300 ms window: the
// runs must print the same bytes, and RS(10,4) must write slower than
// 3-replication (the paper's Fig 1 puts it at 0.14×).
func TestCharacterization(t *testing.T) {
	var first, second strings.Builder
	run(&first, 300*time.Millisecond)
	run(&second, 300*time.Millisecond)
	out := first.String()
	if out != second.String() {
		t.Fatalf("two runs differ:\n%s\n---\n%s", out, second.String())
	}
	var read, write float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "throughput ") {
			fmt.Sscan(strings.TrimPrefix(line, "throughput "), &read, &write) //nolint:errcheck // checked below
		}
	}
	if write <= 0 || write >= 1 {
		t.Errorf("RS(10,4) write throughput is %.2f× 3-Rep's, want in (0, 1):\n%s", write, out)
	}
}
