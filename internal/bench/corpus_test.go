package bench

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ecarray/internal/trace"
	"ecarray/internal/workload"
)

// TestTraceCorpusIsAProjectionOfCells runs one corpus read cell and one
// corpus write cell untraced and then twice with traces. The traces of a
// cell must sum to the device bytes its report counts, a second traced run
// must write the same bytes, and tracing must not move the report.
func TestTraceCorpusIsAProjectionOfCells(t *testing.T) {
	g := Grid{
		Schemes:     []string{"RS(6,3)"},
		Patterns:    []string{workload.Random.String()},
		Ops:         []string{workload.Read.String(), workload.Write.String()},
		BlockSizes:  []int64{4 << 10},
		StripeUnits: []int64{4 << 10},
		Kernels:     []string{"auto"},
		Faults:      []string{"none"},
	}
	run := func(dir string) *BenchReport {
		t.Helper()
		opt := Smoke()
		opt.TraceDir = dir
		s, err := NewSuite(opt)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.RunSweep("smoke", g, 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain := run("")
	dirA, dirB := t.TempDir(), t.TempDir()
	a := run(dirA)
	run(dirB)
	if got, want := a.DeterministicDigest(), plain.DeterministicDigest(); got != want {
		t.Errorf("digest with traces %s, without %s", got, want)
	}

	names := listDir(t, dirA)
	want := []string{"rs6_3_randread_bs4k_data.trace", "rs6_3_randwrite_bs4k_data.trace", "rs6_3_randwrite_bs4k_meta.trace"}
	if !slices.Equal(names, want) {
		t.Fatalf("trace files %v, want %v", names, want)
	}
	for _, name := range names {
		x, _ := os.ReadFile(filepath.Join(dirA, name))
		y, _ := os.ReadFile(filepath.Join(dirB, name))
		if !bytes.Equal(x, y) {
			t.Errorf("%s differs between two runs", name)
		}
	}

	for _, c := range a.Cells {
		stem, _ := corpusName(CellKey{Scheme: c.Scheme, Pattern: c.Pattern, Op: c.Op,
			BlockSize: c.BlockSize, StripeUnit: c.StripeUnit, Fault: c.Fault})
		var sum trace.Stats
		for _, part := range []string{"_data", "_meta"} {
			f, err := os.Open(filepath.Join(dirA, stem+part+".trace"))
			if os.IsNotExist(err) && part == "_meta" {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			meta, events, err := trace.Parse(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			if meta["cell"] != c.ID || len(events) == 0 {
				t.Errorf("%s%s: cell %q, %d events", stem, part, meta["cell"], len(events))
			}
			s := trace.Summarize(events)
			sum.ReadBytes += s.ReadBytes
			sum.WriteBytes += s.WriteBytes
		}
		devRead := int64(math.Round(c.DevReadPerReq * float64(c.Bytes)))
		devWrite := int64(math.Round(c.DevWritePerReq * float64(c.Bytes)))
		if sum.ReadBytes != devRead || sum.WriteBytes != devWrite {
			t.Errorf("%s: traces read %d written %d bytes, cell counted %d and %d",
				c.ID, sum.ReadBytes, sum.WriteBytes, devRead, devWrite)
		}
	}
}

// listDir returns the names in dir, sorted.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestCorpusSkipsVariantCells: a variant cell must not write the traces of
// the base cell whose shape it shares.
func TestCorpusSkipsVariantCells(t *testing.T) {
	k := CellKey{Scheme: "RS(6,3)", Pattern: "rand", Op: "write", BlockSize: 4 << 10,
		StripeUnit: 4 << 10, Kernel: "auto", Fault: "none", Variant: "base"}
	if _, ok := corpusName(k); !ok {
		t.Fatalf("%s is not a corpus cell", k.ID())
	}
	k.Variant = "cap-off"
	if name, ok := corpusName(k); ok {
		t.Fatalf("variant cell %s writes corpus traces %s", k.ID(), name)
	}
}
