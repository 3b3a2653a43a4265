package main

import (
	"strings"
	"testing"
)

// TestSubcommands runs every subcommand twice at small sizes. The two
// runs must print the same bytes (the simulation is seeded), and each
// output must show what its subcommand is for.
func TestSubcommands(t *testing.T) {
	for _, c := range []struct {
		args  []string
		shows string
		check func(out string) bool
	}{
		{[]string{"crush", "-pgs", "4"}, "four PGs, each on 9 OSDs", func(out string) bool {
			n := 0
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "  pg ") && len(strings.Fields(line[strings.Index(line, "[")+1:])) == 9 {
					n++
				}
			}
			return n == 4
		}},
		{[]string{"map", "-object", "rbd_data.vol.0000000000000000"}, "the object's 9 hosts", func(out string) bool {
			_, hosts, ok := strings.Cut(out, "hosts:")
			return ok && len(strings.Split(strings.TrimSpace(hosts), ",")) == 9
		}},
		{[]string{"osd-df", "-duration", "150ms"}, "a row for each of the 24 OSDs", func(out string) bool {
			return strings.Count(out, "\nosd") == 24
		}},
		{[]string{"scenario", "-duration", "100ms", "-pgs", "64", "-rate", "512"}, "a finished recovery", func(out string) bool {
			return strings.Contains(out, "recovery-done")
		}},
		{[]string{"degrade", "-duration", "100ms", "-latency-mult", "10"}, "the breaker ejecting the slow OSD", func(out string) bool {
			return strings.Contains(out, "osd-eject")
		}},
	} {
		t.Run(c.args[0], func(t *testing.T) {
			first := runOK(t, c.args)
			if second := runOK(t, c.args); second != first {
				t.Fatalf("two runs differ:\n%s\n---\n%s", first, second)
			}
			if !c.check(first) {
				t.Errorf("output does not show %s:\n%s", c.shows, first)
			}
		})
	}
}

func runOK(t *testing.T, args []string) string {
	t.Helper()
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 0 || errOut.Len() != 0 {
		t.Fatalf("ecctl %v: exit %d, stderr %q", args, code, errOut.String())
	}
	return out.String()
}

// TestUsage checks that a missing or unknown subcommand is a usage error
// whose message names every subcommand.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"status"}} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("ecctl %v: exit %d, want 2", args, code)
		}
		for _, name := range []string{"crush", "map", "osd-df", "scenario", "degrade"} {
			if !strings.Contains(errOut.String(), name) {
				t.Errorf("ecctl %v: usage %q does not name %s", args, errOut.String(), name)
			}
		}
	}
}
