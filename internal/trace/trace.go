// Package trace captures blktrace-style block-level I/O traces from the
// simulated OSD devices. The reproduced paper collected 54 such traces from
// its cluster with blktrace (§I, §III) and released them at
// trace.camelab.org; ecbench -sweep -traces DIR records an equivalent
// corpus from the simulation's sweep cells (internal/bench/corpus.go).
//
// The text format is one event per line:
//
//	<time_ns> <device> <op> <offset> <length>
//
// with op one of R (read), W (write), T (trim/discard), preceded by
// comment headers ("# key=value") describing the workload.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"ecarray/internal/core"
	"ecarray/internal/sim"
)

// Event is one block-level I/O at a device.
type Event struct {
	Time   sim.Time
	Device string
	Op     byte // 'R', 'W', 'T'
	Offset int64
	Length int64
}

// Recorder collects events from one or more devices.
type Recorder struct {
	e      *sim.Engine
	events []Event
	meta   map[string]string
	order  []string
}

// NewRecorder creates an empty recorder.
func NewRecorder(e *sim.Engine) *Recorder {
	return &Recorder{e: e, meta: map[string]string{}}
}

// SetMeta attaches a header key=value pair (workload description).
func (r *Recorder) SetMeta(key, value string) {
	if _, ok := r.meta[key]; !ok {
		r.order = append(r.order, key)
	}
	r.meta[key] = value
}

// Attach registers the recorder on every OSD device of the cluster.
func (r *Recorder) Attach(c *core.Cluster) {
	for _, osd := range c.OSDs() {
		dev := osd.Store.Device()
		name := fmt.Sprintf("osd%d", osd.ID)
		dev.SetTracer(func(op byte, off, length int64) {
			r.events = append(r.events, Event{
				Time:   r.e.Now(),
				Device: name,
				Op:     op,
				Offset: off,
				Length: length,
			})
		})
	}
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// FilterRegion splits events at a device-offset boundary: events below the
// boundary (the store's WAL+metadata regions) and events at or above it
// (object data). The paper collected separate traces for its metadata and
// data pools; this provides the equivalent split.
func (r *Recorder) FilterRegion(boundary int64) (meta, data []Event) {
	for _, ev := range r.events {
		if ev.Offset < boundary {
			meta = append(meta, ev)
		} else {
			data = append(data, ev)
		}
	}
	return meta, data
}

// WriteTo serializes headers and events in the text format.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	return writeEvents(w, r.headerLines(), r.events)
}

// WriteEvents serializes an explicit event slice with this recorder's
// headers (used with FilterRegion).
func (r *Recorder) WriteEvents(w io.Writer, events []Event) (int64, error) {
	return writeEvents(w, r.headerLines(), events)
}

func (r *Recorder) headerLines() []string {
	lines := []string{"# ecarray block trace v1"}
	keys := append([]string(nil), r.order...)
	sort.Strings(keys)
	for _, k := range keys {
		lines = append(lines, fmt.Sprintf("# %s=%s", k, r.meta[k]))
	}
	return lines
}

func writeEvents(w io.Writer, header []string, events []Event) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for _, h := range header {
		c, err := fmt.Fprintln(bw, h)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	for _, ev := range events {
		c, err := fmt.Fprintf(bw, "%d %s %c %d %d\n", int64(ev.Time), ev.Device, ev.Op, ev.Offset, ev.Length)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Parse reads a trace back, returning headers and events.
func Parse(rd io.Reader) (meta map[string]string, events []Event, err error) {
	meta = map[string]string{}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kv := strings.TrimSpace(strings.TrimPrefix(line, "#"))
			if i := strings.IndexByte(kv, '='); i > 0 {
				meta[kv[:i]] = kv[i+1:]
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) != 5 || len(f[2]) != 1 {
			return nil, nil, fmt.Errorf("trace: line %d malformed: %q", lineNo, line)
		}
		t, err1 := strconv.ParseInt(f[0], 10, 64)
		off, err2 := strconv.ParseInt(f[3], 10, 64)
		length, err3 := strconv.ParseInt(f[4], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, nil, fmt.Errorf("trace: line %d bad numbers: %q", lineNo, line)
		}
		op := f[2][0]
		if op != 'R' && op != 'W' && op != 'T' {
			return nil, nil, fmt.Errorf("trace: line %d bad op %q", lineNo, f[2])
		}
		events = append(events, Event{
			Time: sim.Time(t), Device: f[1], Op: op, Offset: off, Length: length,
		})
	}
	return meta, events, sc.Err()
}

// Stats summarizes a trace.
type Stats struct {
	Events     int
	ReadBytes  int64
	WriteBytes int64
	TrimBytes  int64
	Devices    int
	Span       sim.Time
}

// Summarize computes aggregate statistics over events.
func Summarize(events []Event) Stats {
	s := Stats{Events: len(events)}
	devs := map[string]bool{}
	var first, last sim.Time
	for i, ev := range events {
		devs[ev.Device] = true
		switch ev.Op {
		case 'R':
			s.ReadBytes += ev.Length
		case 'W':
			s.WriteBytes += ev.Length
		case 'T':
			s.TrimBytes += ev.Length
		}
		if i == 0 || ev.Time < first {
			first = ev.Time
		}
		if ev.Time > last {
			last = ev.Time
		}
	}
	s.Devices = len(devs)
	if len(events) > 0 {
		s.Span = last - first
	}
	return s
}
