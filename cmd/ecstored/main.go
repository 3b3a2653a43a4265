// Command ecstored is the shard-store daemon: one per OSD, serving the
// BlobNode side of the service split over HTTP/1.1. It answers on its own
// request loop (service.OSDServer.Serve), not net/http's server: one
// goroutine per connection, one write per answer. The gateway (ecgate)
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
	"net"
	"os"

	"ecarray/internal/qos"
	"ecarray/internal/service"
)

func main() {
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	fs := flag.NewFlagSet("ecstored", flag.ExitOnError)
	listen := fs.String("listen", ":7411", "HTTP listen address")
	srv, err := newServer(fs, os.Args[1:], logger)
	if err != nil {
		logger.Error("ecstored", "error", err.Error())
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listen", "error", err.Error())
		os.Exit(1)
	}
	logger.Info("ecstored listening", "addr", *listen)
	if err := srv.Serve(ln); err != nil {
		logger.Error("serve", "error", err.Error())
		os.Exit(1)
	}
}

// newServer is everything between the command line and a servable shard
// daemon: it declares the daemon's flags on fs, parses args, builds the
// chosen backend's store and the daemon over it, admission included. main
// adds only -listen and the listener, so a test can boot exactly what the
// binary boots.
func newServer(fs *flag.FlagSet, args []string, logger *slog.Logger) (*service.OSDServer, error) {
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

	srv := service.NewOSDServer(*id, st, logger)
	if *inflight > 0 {
		// Bound concurrent shard work; the gateway classifies the resulting
		// 429s as transient and retries against the other replicas/shards.
		srv.SetAdmission(qos.NewMaxInflight(*inflight))
	}
	logger.Info("ecstored ready", "osd", *id, "backend", *backend, "host", hostLabel, "max_inflight", *inflight)
	return srv, nil
}
