// Command ecstored is the shard-store daemon: one per OSD, serving the
// BlobNode side of the service split over HTTP. The gateway (ecgate)
// speaks to a fleet of these through service.OSDClient.
//
// Usage:
//
//	ecstored -listen :7411 -id 0 -backend mem
//	ecstored -listen :7412 -id 1 -max-inflight 128
//
// The one backend, mem, is an in-memory shard map: fast and volatile.
//
// Faults are not injected here: the gateway wraps its client for every OSD
// in the service's one FaultStore (POST /v1/faults/{osd} on ecgate), and a
// real crash is a real kill -9. `go test ./cmd/ecstored` boots this wiring
// in-process.
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
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	fs := flag.NewFlagSet("ecstored", flag.ExitOnError)
	listen := fs.String("listen", ":7411", "HTTP listen address")
	h, err := newHandler(fs, os.Args[1:], logger)
	if err != nil {
		logger.Error("ecstored", "error", err.Error())
		os.Exit(1)
	}
	logger.Info("ecstored listening", "addr", *listen)
	if err := http.ListenAndServe(*listen, h); err != nil {
		logger.Error("serve", "error", err.Error())
		os.Exit(1)
	}
}

// newHandler is everything between the command line and a servable shard
// daemon: it declares the daemon's flags on fs, parses args, builds the
// chosen backend's store and wraps its HTTP handler in admission. main
// adds only -listen and the listener, so a test can boot exactly what the
// binary boots.
func newHandler(fs *flag.FlagSet, args []string, logger *slog.Logger) (http.Handler, error) {
	var (
		id       = fs.Int("id", 0, "OSD id (matches the gateway's placement index)")
		backend  = fs.String("backend", "mem", "shard store backend: mem")
		host     = fs.String("host", "", "failure-domain host label (default nodeN)")
		inflight = fs.Int("max-inflight", 0, "shard-request admission bound; 0 = unlimited, excess gets 429")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	hostLabel := *host
	if hostLabel == "" {
		hostLabel = fmt.Sprintf("node%d", *id)
	}

	if *backend != "mem" {
		return nil, fmt.Errorf("unknown backend %q (want mem)", *backend)
	}
	st := service.NewMemStore(*id)
	st.SetHost(hostLabel)

	h := service.NewOSDServer(*id, st, logger).Handler()
	if *inflight > 0 {
		// Bound concurrent shard work; the gateway classifies the resulting
		// 429s as transient and retries against the other replicas/shards.
		h = service.AdmissionMiddleware(qos.NewMaxInflight(*inflight), h)
	}
	logger.Info("ecstored ready", "osd", *id, "backend", *backend, "host", hostLabel, "max_inflight", *inflight)
	return h, nil
}
