// Command ecgate is the access gateway: the object-facing front door of
// the service split. It encodes PUT bodies into RS(k,m) shards through
// the zero-copy stream codec, places them with CRUSH, and serves GETs
// with transparent degraded-read fallback when OSDs are down or slow.
//
//	ecgate -listen :7310 -backend sim                 # in-process virtual cluster
//	ecgate -listen :7310 -backend mem -hosts 3 -osds-per-host 2
//	ecgate -listen :7310 -backend osd -osd-urls http://h1:7411,http://h2:7411,...
//	ecgate -listen :7310 -tenants gold:3,silver:2,bronze:1   # weighted-fair admission
//
// With -tenants set, admission switches from a flat max-inflight bound
// to weighted-fair queuing keyed by the X-Tenant request header; each
// named tenant gets an inflight share proportional to its weight and
// unnamed tenants share a weight-1 default.
//
// ecgate only serves. What drives it: `go test ./cmd/ecgate` (this wiring,
// in-process, on all three backends) and `bash benchmarks/run.sh -check`
// (real processes over sockets, every GET byte-compared).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"

	"ecarray/internal/crush"
	"ecarray/internal/qos"
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
	st := gw.Status()
	logger.Info("ecgate listening", "addr", *listen, "backend", st.Backend, "scheme", st.Scheme, "osds", st.OSDs)
	if err := http.ListenAndServe(*listen, gw.Handler()); err != nil {
		logger.Error("serve", "error", err.Error())
		os.Exit(1)
	}
}

// newGateway is everything between the command line and a servable
// gateway: it declares the gateway's flags on fs, parses args, builds the
// chosen backend's stores and CRUSH map, and wires the gateway over them.
// main adds only -listen and the listener, so a test can boot exactly what
// the binary boots.
func newGateway(fs *flag.FlagSet, args []string, logger *slog.Logger) (*service.Gateway, error) {
	var (
		backend     = fs.String("backend", "sim", "shard backend: sim | mem | osd")
		hosts       = fs.Int("hosts", 3, "sim/mem: failure-domain hosts")
		osdsPerHost = fs.Int("osds-per-host", 2, "sim/mem: OSDs per host")
		deviceMB    = fs.Int64("device-mb", 256, "sim: device capacity in MiB")
		seed        = fs.Int64("seed", 1, "sim device, retry-jitter and fault-injection RNG seed")
		k           = fs.Int("k", 4, "RS data shards")
		m           = fs.Int("m", 2, "RS parity shards")
		chunk       = fs.Int("chunk", 64<<10, "largest stripe unit (per-shard chunk) in bytes; objects smaller than a stripe use a smaller one, recorded per object")
		maxInflight = fs.Int("max-inflight", 256, "admission bound; excess requests get 429")
		tenants     = fs.String("tenants", "", "weighted-fair admission: comma-separated name:weight pairs (empty = flat max-inflight)")
		osdURLs     = fs.String("osd-urls", "", "osd backend: comma-separated ecstored base URLs")
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
	case "sim":
		vc, err := service.NewSimCluster(service.SimClusterConfig{
			Hosts: *hosts, OSDsPerHost: *osdsPerHost, DeviceBytes: *deviceMB << 20, Seed: *seed,
		})
		if err != nil {
			return nil, fmt.Errorf("sim cluster: %w", err)
		}
		stores, cmap = vc.Stores(), vc.CrushMap()
		cfg.Sim = vc
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
// weighted-fair admission configs.
func parseTenants(s string) (map[string]qos.TenantConfig, error) {
	out := make(map[string]qos.TenantConfig)
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
		out[name] = qos.TenantConfig{Weight: w}
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
