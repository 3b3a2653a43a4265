// Command ecgate is the access gateway: the object-facing front door of
// the service split. It reads PUT bodies straight into RS(k,m) shard
// buffers and encodes each stripe's parity in place, places the shards
// with CRUSH, and serves GETs with transparent degraded-read fallback
// when OSDs are down or slow. On SIGINT or SIGTERM it stops accepting,
// finishes the requests in flight and the shard cleanup they left
// running, and closes the metadata WAL.
//
//	ecgate -listen :7310 -backend mem -hosts 3 -osds-per-host 2   # in-process shard maps (the default)
//	ecgate -listen :7310 -backend osd -osd-urls http://h1:7411,http://h2:7411,...
//	ecgate -listen :7310 -tenants gold:3,silver:2,bronze:1   # weighted-fair admission
//
// With -tenants set, admission switches from a flat max-inflight bound
// to weighted-fair queuing keyed by the X-Tenant request header; each
// named tenant gets an inflight share proportional to its weight and
// unnamed tenants share a weight-1 default.
//
// ecgate only serves. What drives it: `go test ./cmd/ecgate` (this wiring,
// in-process, on both backends) and `bash benchmarks/run.sh -check`
// (real processes over sockets, every GET byte-compared).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"ecarray/internal/crush"
	"ecarray/internal/service"
)

func main() {
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	fs := flag.NewFlagSet("ecgate", flag.ExitOnError)
	listen := fs.String("listen", ":7310", "HTTP listen address")
	gw, err := newGateway(fs, os.Args[1:], logger)
	if err != nil {
		logger.Error("ecgate", "error", err.Error())
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listen", "error", err.Error())
		os.Exit(1)
	}
	st := gw.Status()
	logger.Info("ecgate listening", "addr", *listen, "backend", st.Backend, "scheme", st.Scheme, "osds", st.OSDs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, ln, gw); err != nil {
		logger.Error("serve", "error", err.Error())
		os.Exit(1)
	}
	logger.Info("ecgate stopped")
}

// serve answers gw's HTTP surface on ln until ctx ends, then stops
// cleanly: Shutdown stops accepting and waits for the requests in flight,
// and gw.Close waits for the shard cleanup those requests left running
// after their responses, then closes the metadata WAL.
func serve(ctx context.Context, ln net.Listener, gw *service.Gateway) error {
	srv := &http.Server{Handler: gw.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return errors.Join(err, gw.Close())
	case <-ctx.Done():
	}
	err := srv.Shutdown(context.Background())
	<-served // http.ErrServerClosed once Shutdown has begun
	return errors.Join(err, gw.Close())
}

// newGateway is everything between the command line and a servable
// gateway: it declares the gateway's flags on fs, parses args, builds the
// chosen backend's stores and CRUSH map, and wires the gateway over them.
// main adds only -listen and the listener, so a test can boot exactly what
// the binary boots.
func newGateway(fs *flag.FlagSet, args []string, logger *slog.Logger) (*service.Gateway, error) {
	var (
		backend     = fs.String("backend", "mem", "shard backend: mem | osd")
		hosts       = fs.Int("hosts", 3, "mem: failure-domain hosts")
		osdsPerHost = fs.Int("osds-per-host", 2, "mem: OSDs per host")
		seed        = fs.Int64("seed", 1, "retry-jitter and fault-injection RNG seed")
		k           = fs.Int("k", 4, "RS data shards")
		m           = fs.Int("m", 2, "RS parity shards")
		chunk       = fs.Int("chunk", 64<<10, "largest stripe unit (per-shard chunk) in bytes; objects smaller than a stripe use a smaller one, recorded per object")
		maxInflight = fs.Int("max-inflight", 256, "admission bound; excess requests get 429")
		tenants     = fs.String("tenants", "", "weighted-fair admission: comma-separated name:weight pairs (empty = flat max-inflight)")
		osdURLs     = fs.String("osd-urls", "", "osd backend: comma-separated ecstored URLs, each http://host:port")
		metaDir     = fs.String("meta-dir", "", "metadata WAL directory (empty = volatile in-memory index)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	cfg := service.DefaultGatewayConfig()
	cfg.K, cfg.M = *k, *m
	cfg.ChunkSize = *chunk
	cfg.MaxInflight = *maxInflight
	if *tenants != "" {
		tc, err := parseTenants(*tenants)
		if err != nil {
			return nil, fmt.Errorf("tenants: %w", err)
		}
		cfg.Tenants = tc
		logger.Info("weighted-fair admission", "tenants", len(tc), "limit", cfg.MaxInflight)
	}
	cfg.Logger = logger
	cfg.Backend = *backend
	cfg.MetaDir = *metaDir
	cfg.Seed = *seed

	var (
		stores []service.ShardStore
		cmap   *crush.Map
	)
	switch *backend {
	case "mem":
		cmap = crush.Uniform(*hosts, *osdsPerHost)
		for i := 0; i < cmap.Devices(); i++ {
			ms := service.NewMemStore(i)
			ms.SetHost(cmap.Host(i))
			stores = append(stores, ms)
		}
	case "osd":
		urls := splitURLs(*osdURLs)
		if len(urls) == 0 {
			return nil, errors.New("osd backend: -osd-urls required")
		}
		// One ecstored daemon per failure domain.
		cmap = crush.Uniform(len(urls), 1)
		for i, u := range urls {
			if _, err := service.OSDAddr(u); err != nil {
				return nil, fmt.Errorf("osd backend: %w", err)
			}
			stores = append(stores, service.NewOSDClient(i, u))
		}
	default:
		return nil, fmt.Errorf("unknown backend %q", *backend)
	}

	placer, err := service.NewPlacer(cmap, cfg.K+cfg.M)
	if err != nil {
		return nil, fmt.Errorf("placer: %w", err)
	}
	return service.NewGateway(cfg, stores, placer)
}

// parseTenants turns "gold:3,silver:2,bronze:1" into per-tenant
// weighted-fair admission weights.
func parseTenants(s string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, weight, ok := strings.Cut(pair, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant %q: want name:weight", pair)
		}
		w, err := strconv.ParseFloat(weight, 64)
		// !(w > 0) rather than w <= 0: NaN parses without error and fails
		// every comparison.
		if err != nil || !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("tenant %q: weight must be a positive finite number", pair)
		}
		out[name] = w
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tenants in %q", s)
	}
	return out, nil
}

func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}
