// Characterization: reproduce the paper's Fig 1 summary experiment — 4 KB
// random reads and writes at queue depth 256, RS(10,4) versus
// 3-replication — and print the normalized comparison across all six
// viewpoints (throughput, latency, CPU, context switches, private network,
// I/O amplification).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"ecarray"
)

type outcome struct {
	read, write ecarray.Result
}

func runScheme(name string, profile ecarray.Profile, duration time.Duration) outcome {
	run := func(op ecarray.Op, prefill bool) ecarray.Result {
		cfg := ecarray.DefaultConfig()
		cfg.DeviceCapacity = 2 << 30
		cfg.PGsPerPool = 512
		cluster, err := ecarray.NewCluster(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := cluster.CreatePool("data", profile); err != nil {
			log.Fatal(err)
		}
		img, err := cluster.CreateImage("data", "vol", 4<<30)
		if err != nil {
			log.Fatal(err)
		}
		job := ecarray.Job{
			Name: name, Op: op, Pattern: ecarray.PatternRandom,
			BlockSize: 4096, QueueDepth: 256,
			Duration: duration, Seed: 1,
		}
		if prefill {
			img.Prefill() // reads measure a pre-written image, as in §III
			job.Ramp = duration / 5
		}
		res, err := ecarray.RunJob(cluster, img, job)
		if err != nil {
			log.Fatal(err)
		}
		cluster.Engine().Drain()
		return res
	}
	return outcome{read: run(ecarray.OpRead, true), write: run(ecarray.OpWrite, false)}
}

func main() {
	duration := flag.Duration("duration", 1600*time.Millisecond, "measurement window per run")
	flag.Parse()
	run(os.Stdout, *duration)
}

// run is the whole example with the given measurement window per run; it
// prints to w.
func run(w io.Writer, duration time.Duration) {
	fmt.Fprintln(w, "running 4KB random workloads (qd=256): 3-Rep vs RS(10,4) ...")
	rep := runScheme("3-Rep", ecarray.ProfileReplicated(3), duration)
	ec := runScheme("RS(10,4)", ecarray.ProfileEC(10, 4), duration)

	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	norm := func(metric string, read, write, paperR, paperW float64) {
		fmt.Fprintf(w, "%-24s %8.2f %8.2f   (paper: %s / %s)\n", metric, read, write,
			fmtPaper(paperR), fmtPaper(paperW))
	}
	amp := func(res ecarray.Result, write bool) float64 {
		if write {
			return float64(res.Metrics.DeviceWriteBytes) / float64(res.Bytes)
		}
		return float64(res.Metrics.DeviceReadBytes) / float64(res.Bytes)
	}
	net := func(res ecarray.Result) float64 {
		return float64(res.Metrics.PrivateBytes) / float64(res.Bytes)
	}
	cpu := func(res ecarray.Result) float64 {
		return res.Metrics.UserCPU + res.Metrics.KernelCPU
	}
	ctxMB := func(res ecarray.Result) float64 {
		return float64(res.Metrics.ContextSwitches) / (float64(res.Bytes) / (1 << 20))
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "RS(10,4) normalized to 3-Replication   read    write")
	norm("throughput",
		ratio(ec.read.MBps, rep.read.MBps), ratio(ec.write.MBps, rep.write.MBps), 0.67, 0.14)
	norm("latency",
		ratio(float64(ec.read.MeanLatency), float64(rep.read.MeanLatency)),
		ratio(float64(ec.write.MeanLatency), float64(rep.write.MeanLatency)), 1.5, 7.6)
	norm("CPU utilization",
		ratio(cpu(ec.read), cpu(rep.read)), ratio(cpu(ec.write), cpu(rep.write)), 10.7, 1.9)
	norm("context switches/MB",
		ratio(ctxMB(ec.read), ctxMB(rep.read)), ratio(ctxMB(ec.write), ctxMB(rep.write)), 12.6, 7.1)
	norm("private network/req",
		ratio(net(ec.read), net(rep.read)), ratio(net(ec.write), net(rep.write)), 37.8, 74.7)
	norm("I/O amplification",
		ratio(amp(ec.read, false), amp(rep.read, false)),
		ratio(amp(ec.write, true), amp(rep.write, true)), 10.4, 57.7)

	fmt.Fprintln(w)
	fmt.Fprintf(w, "absolute: 3-Rep  read %7.1f MB/s  write %7.1f MB/s\n", rep.read.MBps, rep.write.MBps)
	fmt.Fprintf(w, "          RS10,4 read %7.1f MB/s  write %7.1f MB/s\n", ec.read.MBps, ec.write.MBps)
}

func fmtPaper(v float64) string { return fmt.Sprintf("%.2g", v) }
