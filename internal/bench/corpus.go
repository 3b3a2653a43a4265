package bench

import (
	"fmt"
	"os"

	"ecarray/internal/core"
	"ecarray/internal/sim"
	"ecarray/internal/trace"
	"ecarray/internal/workload"
)

// The paper's released artifact is 54 block-level traces collected with
// blktrace (§I): 36 data traces over 3 schemes × {4,16,128} KB × {seq,
// rand} × {read, write}, and 18 metadata traces, one per write workload.
// Here the corpus is a projection of sweep cells: with Options.TraceDir
// set, every healthy 4 KiB-stripe-unit cell of the base config at one of
// those block sizes records its OSD devices' I/O over its measurement
// window and writes it there. Recording schedules nothing, so a traced
// cell reports the same numbers as an untraced one.

// corpusSchemes names each scheme in the corpus file names.
var corpusSchemes = map[string]string{"3-Rep": "3rep", "RS(6,3)": "rs6_3", "RS(10,4)": "rs10_4"}

// corpusName returns the file-name stem of k's traces, such as
// "rs6_3_randwrite_bs4k", and whether k is a corpus cell at all.
func corpusName(k CellKey) (string, bool) {
	scheme, ok := corpusSchemes[k.Scheme]
	switch {
	case !ok, k.StripeUnit != 4<<10, k.fault() != "none", k.variant() != "":
		return "", false
	case k.BlockSize != 4<<10 && k.BlockSize != 16<<10 && k.BlockSize != 128<<10:
		return "", false
	}
	return fmt.Sprintf("%s_%s%s_bs%dk", scheme, k.Pattern, k.Op, k.BlockSize>>10), true
}

// corpusRecorder attaches a recorder to every OSD device of c, with
// headers naming the cell (job.Name is its ID) and its workload.
func corpusRecorder(c *core.Cluster, scheme string, job workload.Job, imageBytes int64) *trace.Recorder {
	rec := trace.NewRecorder(c.Engine())
	rec.SetMeta("cell", job.Name)
	rec.SetMeta("scheme", scheme)
	rec.SetMeta("workload", job.Pattern.String()+job.Op.String())
	rec.SetMeta("bs", fmt.Sprint(job.BlockSize))
	rec.SetMeta("qd", fmt.Sprint(job.QueueDepth))
	rec.SetMeta("image_bytes", fmt.Sprint(imageBytes))
	rec.SetMeta("source", "ecarray simulated reproduction of IISWC'17 camelab traces")
	rec.Attach(c)
	return rec
}

// writeCorpus writes the events rec holds in [from, to) as stem's data
// trace and, for a write cell, its metadata trace. The store keeps its WAL
// and metadata in the first 2×WALRegion bytes of every device: I/O there
// is the paper's separate metadata pool.
func writeCorpus(stem string, rec *trace.Recorder, cfg core.Config, write bool, from, to sim.Time) error {
	meta, data := rec.FilterRegion(2 * cfg.Store.WALRegion)
	if err := writeTrace(stem+"_data.trace", rec, within(data, from, to)); err != nil {
		return err
	}
	if !write {
		return nil
	}
	return writeTrace(stem+"_meta.trace", rec, within(meta, from, to))
}

// within keeps the events in [from, to), reusing evs's backing array.
func within(evs []trace.Event, from, to sim.Time) []trace.Event {
	out := evs[:0]
	for _, ev := range evs {
		if ev.Time >= from && ev.Time < to {
			out = append(out, ev)
		}
	}
	return out
}

func writeTrace(path string, rec *trace.Recorder, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := rec.WriteEvents(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
