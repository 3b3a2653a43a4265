package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/sim"
)

func traceCluster(t *testing.T) (*sim.Engine, *core.Cluster, *core.Image) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.DeviceCapacity = 2 << 30
	cfg.PGsPerPool = 64
	e := sim.NewEngine()
	c, err := core.New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreatePool("p", core.ProfileReplicated(3)); err != nil {
		t.Fatal(err)
	}
	img, err := c.CreateImage("p", "img", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	return e, c, img
}

func TestRecorderCapturesDeviceIO(t *testing.T) {
	e, c, img := traceCluster(t)
	r := NewRecorder(e)
	r.SetMeta("workload", "unit-test")
	r.Attach(c)
	e.Go("w", func(p *sim.Proc) {
		img.Write(p, 0, nil, 65536) //nolint:errcheck
		img.Read(p, 0, 4096)        //nolint:errcheck
	})
	c.Stop()
	e.Run()
	if r.Len() == 0 {
		t.Fatal("no events recorded")
	}
	var reads, writes int
	for _, ev := range r.events {
		switch ev.Op {
		case 'R':
			reads++
		case 'W':
			writes++
		}
		if ev.Length <= 0 || ev.Offset < 0 {
			t.Fatalf("bad event %+v", ev)
		}
	}
	if writes == 0 {
		t.Fatal("no write events")
	}
	// Timestamps must be non-decreasing (simulation order).
	evs := r.events
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatal("timestamps not monotone")
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	e, c, img := traceCluster(t)
	r := NewRecorder(e)
	r.SetMeta("scheme", "3-Rep")
	r.SetMeta("bs", "4096")
	r.Attach(c)
	e.Go("w", func(p *sim.Proc) {
		for i := int64(0); i < 8; i++ {
			img.Write(p, i*8192, nil, 4096) //nolint:errcheck
		}
	})
	c.Stop()
	e.Run()

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	meta, events, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta["scheme"] != "3-Rep" || meta["bs"] != "4096" {
		t.Fatalf("meta = %v", meta)
	}
	if len(events) != r.Len() {
		t.Fatalf("parsed %d events, recorded %d", len(events), r.Len())
	}
	for i, ev := range events {
		if ev != r.events[i] {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, ev, r.events[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"1 osd0 R 0",          // missing field
		"x osd0 R 0 4096",     // bad time
		"1 osd0 Q 0 4096",     // bad op
		"1 osd0 R zero 4096",  // bad offset
		"1 osd0 R 0 x",        // bad length
		"1 osd0 RW 1024 4096", // multi-char op
	}
	for _, c := range cases {
		if _, _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse(%q) must fail", c)
		}
	}
	// Blank lines and comments are fine.
	meta, evs, err := Parse(strings.NewReader("# a=b\n\n1 osd0 R 0 4096\n"))
	if err != nil || meta["a"] != "b" || len(evs) != 1 {
		t.Fatalf("valid trace rejected: %v %v %v", meta, evs, err)
	}
}

func TestFilterRegion(t *testing.T) {
	r := &Recorder{meta: map[string]string{}}
	r.events = []Event{
		{Offset: 100, Op: 'W', Length: 1, Device: "osd0"},
		{Offset: 5000, Op: 'W', Length: 1, Device: "osd0"},
		{Offset: 4999, Op: 'R', Length: 1, Device: "osd0"},
	}
	meta, data := r.FilterRegion(5000)
	if len(meta) != 2 || len(data) != 1 {
		t.Fatalf("split %d/%d, want 2/1", len(meta), len(data))
	}
}

func TestSummarize(t *testing.T) {
	evs := []Event{
		{Time: sim.Time(time.Second), Device: "osd0", Op: 'R', Length: 100},
		{Time: sim.Time(2 * time.Second), Device: "osd1", Op: 'W', Length: 200},
		{Time: sim.Time(3 * time.Second), Device: "osd0", Op: 'T', Length: 300},
	}
	s := Summarize(evs)
	if s.Events != 3 || s.ReadBytes != 100 || s.WriteBytes != 200 || s.TrimBytes != 300 {
		t.Fatalf("stats %+v", s)
	}
	if s.Devices != 2 || s.Span != sim.Time(2*time.Second) {
		t.Fatalf("stats %+v", s)
	}
	if z := Summarize(nil); z.Events != 0 || z.Span != 0 {
		t.Fatal("empty summarize wrong")
	}
}
