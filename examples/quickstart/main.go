// Quickstart: build a small simulated SSD-array cluster, store data through
// the paper's RS(6,3) erasure-coded pool, read it back with verification,
// and print the cluster-side costs of doing so.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

	"ecarray"
)

func main() { run(os.Stdout) }

// run is the whole example; it prints to w.
func run(w io.Writer) {
	// A scaled-down cluster in data-carrying mode: every byte really flows
	// through striping, GF(2^8) encoding, the object stores and the
	// simulated flash devices.
	cfg := ecarray.DefaultConfig()
	cfg.DeviceCapacity = 2 << 30
	cfg.PGsPerPool = 64
	cfg.CarryData = true

	cluster, err := ecarray.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// RS(6,3): the Google Colossus configuration — tolerates any 3 lost
	// chunks at 1.5x storage overhead (vs 3x for 3-replication).
	if _, err := cluster.CreatePool("data", ecarray.ProfileEC(6, 3)); err != nil {
		log.Fatal(err)
	}
	img, err := cluster.CreateImage("data", "vol0", 64<<20)
	if err != nil {
		log.Fatal(err)
	}

	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 2654435761)
	}

	// All cluster I/O happens in virtual time: spawn a process and step the
	// engine until it completes.
	var got []byte
	cluster.Engine().RunProc("quickstart", func(p *ecarray.Proc) {
		if err := img.Write(p, 4096, payload, int64(len(payload))); err != nil {
			log.Fatal(err)
		}
		got, err = img.Read(p, 4096, int64(len(payload)))
		if err != nil {
			log.Fatal(err)
		}
	})

	if !bytes.Equal(got, payload) {
		log.Fatal("read-back mismatch: erasure coding pipeline corrupted data")
	}
	fmt.Fprintln(w, "wrote and verified 1 MiB through RS(6,3)")

	m := cluster.Metrics()
	defer func() { // drain background daemons before exit
		cluster.Stop()
		cluster.Engine().Run()
	}()
	fmt.Fprintf(w, "virtual time elapsed:   %v\n", cluster.Engine().Now())
	fmt.Fprintf(w, "device writes:          %.1f MiB (%.2fx the payload: stripes + parity + WAL + metadata)\n",
		float64(m.DeviceWriteBytes)/(1<<20), float64(m.DeviceWriteBytes)/float64(len(payload)))
	fmt.Fprintf(w, "device reads:           %.1f MiB\n", float64(m.DeviceReadBytes)/(1<<20))
	fmt.Fprintf(w, "private network:        %.1f MiB (chunk pushes + RS-concatenation pulls)\n",
		float64(m.PrivateBytes)/(1<<20))
	fmt.Fprintf(w, "context switches:       %d\n", m.ContextSwitches)
	fmt.Fprintf(w, "storage-cluster CPU:    %.2f%% user / %.2f%% system\n",
		m.UserCPU*100, m.KernelCPU*100)
}
