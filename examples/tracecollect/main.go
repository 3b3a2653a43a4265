// Tracecollect: run a workload with a blktrace-style recorder attached to
// every OSD device (as the paper does with blktrace, §III), write the trace
// to disk in the ecarray text format, parse it back and summarize it.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"ecarray"
)

func main() { run(os.Stdout) }

// run is the whole example; it prints to w and writes the trace file into
// the working directory.
func run(w io.Writer) {
	cfg := ecarray.DefaultConfig()
	cfg.DeviceCapacity = 2 << 30
	cfg.PGsPerPool = 256

	cluster, err := ecarray.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.CreatePool("data", ecarray.ProfileEC(6, 3)); err != nil {
		log.Fatal(err)
	}
	img, err := cluster.CreateImage("data", "vol0", 2<<30)
	if err != nil {
		log.Fatal(err)
	}

	rec := ecarray.NewTraceRecorder(cluster)
	rec.SetMeta("scheme", "RS(6,3)")
	rec.SetMeta("workload", "randwrite")
	rec.SetMeta("bs", "16384")
	rec.Attach(cluster)

	res, err := ecarray.RunJob(cluster, img, ecarray.Job{
		Name: "trace", Op: ecarray.OpWrite, Pattern: ecarray.PatternRandom,
		BlockSize: 16 << 10, QueueDepth: 64, Duration: 500 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "workload: %s\n", res)

	const path = "randwrite_rs6_3.trace"
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := rec.WriteTo(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "wrote %d block events to %s\n", rec.Len(), path)

	// Round-trip: parse the file back and summarize, as a downstream trace
	// consumer would.
	rf, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	meta, events, err := ecarray.ParseTrace(rf)
	if err != nil {
		log.Fatal(err)
	}
	s := ecarray.SummarizeTrace(events)
	fmt.Fprintf(w, "parsed back: scheme=%s workload=%s bs=%s\n", meta["scheme"], meta["workload"], meta["bs"])
	fmt.Fprintf(w, "  %d events across %d devices, spanning %v\n", s.Events, s.Devices, s.Span)
	fmt.Fprintf(w, "  device reads  %.1f MiB\n", float64(s.ReadBytes)/(1<<20))
	fmt.Fprintf(w, "  device writes %.1f MiB (vs %.1f MiB requested: EC write amplification)\n",
		float64(s.WriteBytes)/(1<<20), float64(res.Bytes)/(1<<20))
}
