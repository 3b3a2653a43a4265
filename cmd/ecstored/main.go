// Command ecstored is the shard-store daemon: one per OSD, serving the
// BlobNode side of the service split over HTTP. The gateway (ecgate)
// speaks to a fleet of these through service.OSDClient.
//
// Usage:
//
//	ecstored -listen :7411 -id 0 -backend mem
//	ecstored -listen :7412 -id 1 -backend sim -device-mb 256 -seed 1
//	ecstored -listen :7413 -id 2 -backend mem -max-inflight 128
//
// Backends:
//
//	mem  in-memory shard map (default; fast, volatile)
//	sim  one simulated SSD + BlueStore-style store on a discrete-event
//	     engine, so shard ops carry a simulated service-time cost
//
// Faults are not injected here: the gateway wraps its client for every OSD
// in the service's one FaultStore (POST /v1/faults/{osd} on ecgate), and a
// real crash is a real kill -9.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"

	"ecarray/internal/qos"
	"ecarray/internal/service"
)

func main() {
	var (
		listen   = flag.String("listen", ":7411", "HTTP listen address")
		id       = flag.Int("id", 0, "OSD id (matches the gateway's placement index)")
		backend  = flag.String("backend", "mem", "shard store backend: mem | sim")
		host     = flag.String("host", "", "failure-domain host label (default nodeN)")
		deviceMB = flag.Int64("device-mb", 256, "sim backend: device capacity in MiB")
		seed     = flag.Int64("seed", 1, "sim backend: device RNG seed")
		inflight = flag.Int("max-inflight", 0, "shard-request admission bound; 0 = unlimited, excess gets 429")
	)
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	hostLabel := *host
	if hostLabel == "" {
		hostLabel = fmt.Sprintf("node%d", *id)
	}

	var st service.ShardStore
	switch *backend {
	case "mem":
		ms := service.NewMemStore(*id)
		ms.SetHost(hostLabel)
		st = ms
	case "sim":
		vc, err := service.NewSimCluster(service.SimClusterConfig{
			Hosts: 1, OSDsPerHost: 1, DeviceBytes: *deviceMB << 20, Seed: *seed,
		})
		if err != nil {
			logger.Error("sim backend", "error", err.Error())
			os.Exit(1)
		}
		st = vc.Stores()[0]
	default:
		logger.Error("unknown backend", "backend", *backend)
		os.Exit(1)
	}

	srv := service.NewOSDServer(*id, st, logger)
	h := srv.Handler()
	if *inflight > 0 {
		// Bound concurrent shard work; the gateway classifies the resulting
		// 429s as transient and retries against the other replicas/shards.
		h = service.AdmissionMiddleware(qos.NewMaxInflight(*inflight), h)
	}
	logger.Info("ecstored listening",
		"addr", *listen, "osd", *id, "backend", *backend, "host", hostLabel,
		"max_inflight", *inflight)
	if err := http.ListenAndServe(*listen, h); err != nil {
		logger.Error("serve", "error", err.Error())
		os.Exit(1)
	}
}
