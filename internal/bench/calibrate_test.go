package bench

import (
	"strings"
	"testing"

	"ecarray/internal/gf"
)

// TestCalibrateEncodePlumbing verifies the codec knobs reach the cluster
// config: with CalibrateEncode on, EC clusters get a measured EncodeMBps
// (so encode cost follows the real codec), and replicated clusters are
// untouched; with it off, the paper-calibrated constant stays in charge.
func TestCalibrateEncodePlumbing(t *testing.T) {
	opt := Tiny()
	opt.CalibrateEncode = true
	opt.CodecConcurrency = 2
	s, err := NewSuite(opt)
	if err != nil {
		t.Fatal(err)
	}

	mbps := s.encodeMBps(6, 3)
	if mbps <= 0 {
		t.Fatalf("encodeMBps(6,3) = %v, want > 0", mbps)
	}
	if again := s.encodeMBps(6, 3); again != mbps {
		t.Fatalf("encodeMBps must be cached: %v then %v", mbps, again)
	}

	schemes := Schemes()
	var ecScheme, repScheme Scheme
	for _, sc := range schemes {
		if sc.Profile.IsEC() {
			ecScheme = sc
		} else {
			repScheme = sc
		}
	}
	c, _, err := s.clusterFor(ecScheme, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Config().Cost.EncodeMBps; got <= 0 {
		t.Fatalf("calibrated EC cluster EncodeMBps = %v, want > 0", got)
	}
	if got := c.Config().CodecConcurrency; got != 2 {
		t.Fatalf("cluster CodecConcurrency = %d, want 2", got)
	}
	cRep, _, err := s.clusterFor(repScheme, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := cRep.Config().Cost.EncodeMBps; got != 0 {
		t.Fatalf("replicated cluster EncodeMBps = %v, want 0", got)
	}

	// Off by default: no calibration.
	s2, err := NewSuite(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := s2.clusterFor(ecScheme, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Config().Cost.EncodeMBps; got != 0 {
		t.Fatalf("uncalibrated cluster EncodeMBps = %v, want 0", got)
	}
}

// TestCalibrationNotesRecordKernel: calibrated runs record which codec
// kernel produced the measured MB/s, in both the table notes and the CSV
// output.
func TestCalibrationNotesRecordKernel(t *testing.T) {
	opt := Tiny()
	opt.CalibrateEncode = true
	opt.CodecConcurrency = 1
	s, err := NewSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.encodeMBps(6, 3) <= 0 {
		t.Fatal("calibration measurement failed")
	}
	notes := s.CalibrationNotes()
	if len(notes) != 1 {
		t.Fatalf("CalibrationNotes = %v, want one entry", notes)
	}
	wantKernel := "kernel=" + gf.ActiveKernel().String()
	if !strings.Contains(notes[0], "RS(6,3)") || !strings.Contains(notes[0], wantKernel) {
		t.Fatalf("note %q must name the scheme and %q", notes[0], wantKernel)
	}

	tb := Table{ID: "x", Columns: []string{"a"}, Rows: [][]string{{"1"}}, Notes: notes}
	csv := tb.CSV()
	if !strings.Contains(csv, "# note: "+notes[0]) {
		t.Fatalf("CSV must carry the calibration note as a comment line:\n%s", csv)
	}
}

// TestCodecKernelKnobPlumbing: the suite's kernel knob must reach the
// cluster config and be validated.
func TestCodecKernelKnobPlumbing(t *testing.T) {
	opt := Tiny()
	opt.CodecKernel = "scalar"
	s, err := NewSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.SetKernel(gf.KernelAuto)
	c, _, err := s.clusterFor(Schemes()[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Config().CodecKernel; got != "scalar" {
		t.Fatalf("cluster CodecKernel = %q, want scalar", got)
	}
	if gf.ActiveKernel() != gf.KernelScalar {
		t.Fatalf("kernel knob not applied: active = %v", gf.ActiveKernel())
	}

	bad := Tiny()
	bad.CodecKernel = "simd9000"
	if _, err := NewSuite(bad); err == nil {
		t.Fatal("unknown kernel name must be rejected")
	}
}
