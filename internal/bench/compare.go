package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// defaultEventsPerSecDrop is the engine events/sec gate's allowed drop
// when CompareReports is given 0.
const defaultEventsPerSecDrop = 0.50

// Diff is one deterministic field that differs between two reports. Old
// and New are JSON values; an empty one means the field or cell is absent
// on that side.
type Diff struct {
	Cell  string // empty for a report-level field
	Field string // JSON name, dotted or indexed when nested; empty for a lost or added cell
	Old   string
	New   string
}

func (d Diff) String() string {
	where := d.Cell
	if where == "" {
		where = "report"
	}
	if d.Field != "" {
		where += " " + d.Field
	}
	return fmt.Sprintf("%s: %s → %s", where, orAbsent(d.Old), orAbsent(d.New))
}

func orAbsent(v string) string {
	if v == "" {
		return "absent"
	}
	return v
}

// CompareResult is the outcome of diffing two reports.
type CompareResult struct {
	OldDigest string
	NewDigest string
	// Diffs lists every deterministic difference: changed cell fields and
	// lost cells in the old report's cell order, then added cells, then
	// changed report-level fields.
	Diffs []Diff
	// The engine events/sec gate, timing-based: EventsPerSecLimit is the
	// lowest new rate it accepts, 0 when either report did not measure one.
	OldEventsPerSec, NewEventsPerSec, EventsPerSecLimit float64
}

// Identical reports whether the two deterministic payloads match.
func (c *CompareResult) Identical() bool { return c.OldDigest == c.NewDigest }

func (c *CompareResult) engineSlow() bool { return c.NewEventsPerSec < c.EventsPerSecLimit }

// Ok reports whether the new report passes: equal digests, and engine
// events/sec above the gate's limit.
func (c *CompareResult) Ok() bool { return c.Identical() && !c.engineSlow() }

// Format renders a human-readable verdict.
func (c *CompareResult) Format() string {
	var b strings.Builder
	if c.Identical() {
		fmt.Fprintf(&b, "reports are deterministically identical (digest %s)\n", c.NewDigest)
	} else {
		fmt.Fprintf(&b, "deterministic digests differ: old %s, new %s; %d difference(s):\n", c.OldDigest, c.NewDigest, len(c.Diffs))
		for _, d := range c.Diffs {
			fmt.Fprintf(&b, "  %s\n", d)
		}
	}
	if c.engineSlow() {
		fmt.Fprintf(&b, "REGRESSION engine events/sec %.4g -> %.4g (limit %.4g)\n", c.OldEventsPerSec, c.NewEventsPerSec, c.EventsPerSecLimit)
	}
	if c.Ok() {
		b.WriteString("pass\n")
	} else {
		b.WriteString("FAIL\n")
	}
	return b.String()
}

// CompareReports diffs two reports of one run shape. The new report passes
// only if its deterministic digest equals the old one's: a cell's payload
// is a pure function of code, grid and seed, so any change to simulated
// behaviour fails, and the result lists every changed field. The one
// tolerance is the wall-clock engine events/sec gate, which fails when the
// rate fell by more than eventsPerSecDrop (0 selects 0.50). Reports must
// share the schema version and run config, or there is nothing to compare
// cell by cell and CompareReports returns an error. Their grids may
// differ: a grown grid fails the digest, and the diff lists its cells as
// absent → present and its grid.* fields.
func CompareReports(old, new *BenchReport, eventsPerSecDrop float64) (*CompareResult, error) {
	if old.SchemaVersion != new.SchemaVersion {
		return nil, fmt.Errorf("bench: compare: schema versions differ (%d vs %d)", old.SchemaVersion, new.SchemaVersion)
	}
	if old.Config != new.Config {
		return nil, fmt.Errorf("bench: compare: run configs differ\nold: %+v\nnew: %+v", old.Config, new.Config)
	}
	res := &CompareResult{
		OldDigest:       old.DeterministicDigest(),
		NewDigest:       new.DeterministicDigest(),
		OldEventsPerSec: old.Engine.EventsPerSec,
		NewEventsPerSec: new.Engine.EventsPerSec,
	}
	if old.Engine.EventsPerSec > 0 && new.Engine.EventsPerSec > 0 {
		if eventsPerSecDrop == 0 {
			eventsPerSecDrop = defaultEventsPerSecDrop
		}
		res.EventsPerSecLimit = old.Engine.EventsPerSec * (1 - eventsPerSecDrop)
	}
	if res.Identical() {
		return res, nil
	}

	o, n := old.stripTiming(), new.stripTiming()
	newByID := map[string]CellReport{}
	for _, c := range n.Cells {
		newByID[c.ID] = c
	}
	for _, oc := range o.Cells {
		nc, ok := newByID[oc.ID]
		if !ok {
			res.Diffs = append(res.Diffs, Diff{Cell: oc.ID, Old: "present"})
			continue
		}
		delete(newByID, oc.ID)
		res.Diffs = append(res.Diffs, diffCell(oc, nc)...)
	}
	for _, nc := range n.Cells {
		if _, added := newByID[nc.ID]; added {
			res.Diffs = append(res.Diffs, Diff{Cell: nc.ID, New: "present"})
		}
	}
	o.Cells, n.Cells = nil, nil
	res.Diffs = diffJSON(res.Diffs, "", "", mustJSON(o), mustJSON(n))
	return res, nil
}

// diffCell lists the deterministic fields in which two results for one
// cell differ, by JSON name; the timing fields are not compared.
func diffCell(old, new CellReport) []Diff {
	return diffJSON(nil, old.ID, "", mustJSON(old.withoutTiming()), mustJSON(new.withoutTiming()))
}

// diffJSON appends to out every leaf in which the JSON values a and b
// differ, naming it from name down: object fields are dotted
// (engine.events), array elements indexed (checks[0].measured).
func diffJSON(out []Diff, cell, name string, a, b []byte) []Diff {
	var ao, bo map[string]json.RawMessage
	if json.Unmarshal(a, &ao) == nil && json.Unmarshal(b, &bo) == nil {
		var keys []string
		for k := range ao {
			keys = append(keys, k)
		}
		for k := range bo {
			if _, ok := ao[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		if name != "" {
			name += "."
		}
		for _, k := range keys {
			out = diffJSON(out, cell, name+k, ao[k], bo[k])
		}
		return out
	}
	var aa, ba []json.RawMessage
	if json.Unmarshal(a, &aa) == nil && json.Unmarshal(b, &ba) == nil {
		for i := 0; i < max(len(aa), len(ba)); i++ {
			out = diffJSON(out, cell, fmt.Sprintf("%s[%d]", name, i), elem(aa, i), elem(ba, i))
		}
		return out
	}
	if !bytes.Equal(a, b) {
		out = append(out, Diff{Cell: cell, Field: name, Old: string(a), New: string(b)})
	}
	return out
}

// elem is s[i], or nil past its end.
func elem(s []json.RawMessage, i int) json.RawMessage {
	if i < len(s) {
		return s[i]
	}
	return nil
}

// mustJSON marshals a report or cell, which cannot fail.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}
