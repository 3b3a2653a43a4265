// Command ecload is the repo's benchmark: it drives the real service over
// sockets (ecload → ecgate → 6 × ecstored) and the simulator sweep, checks
// every byte that comes back, and reports end-to-end metrics (untraced) and
// per-layer metrics (traced). See benchmarks/README.md.
//
//	ecload --workload svc-large --seed 1 --seconds 20 --trace 0   # one run; last line is the result as JSON
//	ecload -out base.json -repeat 3                                # every workload, three times each
//	ecload --trace 1 --workload svc-small                          # per-layer numbers and trace.json
//	ecload -compare base.json new.json
//	ecload -check                                                  # every workload and mode at 1/20 scale
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"ecarray/internal/gf"
)

// checkSeconds is -check's scale: about 1/20 of a real run's op counts.
const checkSeconds = 1.0

// harness is what every mode shares: where the repo is, where binaries and
// scratch files go, and the human-readable log.
type harness struct {
	root     string // the checkout (holds go.mod)
	binDir   string
	workRoot string
	traceOut string
	setups   int // times an untraced run sets up, so setup_s is a median
	buildS   float64

	mu    sync.Mutex
	warns int
}

// say prints one human-readable line. The machine-readable result is always
// the last line of standard output.
func (h *harness) say(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fmt.Printf(format+"\n", args...)
}

// warn reports a failed op or assertion; after twenty it only counts.
func (h *harness) warn(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.warns++; h.warns <= 20 {
		fmt.Fprintf(os.Stderr, "ecload: "+format+"\n", args...)
	}
}

// findRoot walks up from the working directory to the module root, so the
// harness works from the checkout root (the driver) and from its own
// package directory (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ecgate")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a checkout of the repo: no go.mod with cmd/ecgate above the working directory")
		}
		dir = parent
	}
}

// build compiles the two daemons from the checkout's source into binDir.
func (h *harness) build(ctx context.Context) error {
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", h.binDir+string(filepath.Separator), "./cmd/ecgate", "./cmd/ecstored")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/ecgate ./cmd/ecstored: %w\n%s", err, out)
	}
	h.buildS = time.Since(t0).Seconds()
	return nil
}

// result is one run of one workload.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     int     `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	// Counts are the op counts behind the metrics (fixed by seed and seconds).
	Counts  map[string]int64 `json:"counts"`
	Metrics metricSet        `json:"metrics"`
}

// runOnce runs one workload once. Untraced, it reports the end-to-end
// metrics with set-up done h.setups times; traced, it reports the per-layer
// metrics from an untraced pass (boundary counters), a traced pass (spans),
// the stage replay and the kernel floor.
func (h *harness) runOnce(ctx context.Context, name string, seed int64, seconds float64, trace bool) (result, error) {
	res := result{Workload: name, Seed: seed, Seconds: seconds, Metrics: metricSet{}}
	m := metricSet{}
	scale := seconds / 20
	budget := time.Duration(150 * scale * float64(time.Millisecond)) // per replayed call
	setups := h.setups
	var tr *tracer
	if trace {
		res.Trace, setups, tr = 1, 1, newTracer()
	}

	var err error
	switch _, svc := svcWorkloads[name]; {
	case name == wlSim:
		err = h.simOnce(ctx, &res, m, seed, seconds, setups, tr)
	case svc:
		err = h.svcOnce(ctx, &res, m, seed, seconds, setups, tr, budget)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return res, err
	}

	specs := endToEnd
	if trace {
		specs = perLayer
		floor(m, budget, int(math.Max(1000, 200000*scale)))
		m.set("ecload.build_s", h.buildS, 1)
		m.set("ecload.failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), int(res.Attempted))
		n, err := tr.writeFile(h.traceOut)
		if err != nil {
			return res, err
		}
		h.say("%s: %d spans written to %s", name, n, h.traceOut)
	}
	res.Metrics = m.finish(specs)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return res, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return res, nil
}

func (h *harness) simOnce(ctx context.Context, res *result, m metricSet, seed int64, seconds float64, setups int, tr *tracer) error {
	r, err := h.runSim(ctx, seed, seconds, setups, tr)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	if r.report == nil {
		return nil // a cell errored: already counted as failed
	}
	res.Counts = map[string]int64{"cells": int64(len(r.report.Cells)), "events": int64(r.report.Engine.Events)}
	h.say("sim-sweep: full-grid deterministic digest %s", r.digest)
	if tr != nil {
		r.layers(m, h.say)
	} else {
		r.endToEnd(m)
	}
	return nil
}

func (h *harness) svcOnce(ctx context.Context, res *result, m metricSet, seed int64, seconds float64, setups int, tr *tracer, budget time.Duration) error {
	u, err := h.runSvc(ctx, res.Workload, seed, seconds, setups, nil)
	if err != nil {
		return err
	}
	u.tearDown()
	res.Attempted, res.Failed = u.attempted, u.failed
	res.Counts = map[string]int64{"keys": int64(u.w.keys), "puts": int64(u.puts), "gets": int64(u.gets)}
	if tr == nil {
		u.endToEnd(m)
		return nil
	}
	u.boundary(m)
	t, err := h.runSvc(ctx, res.Workload, seed, seconds, 1, tr)
	if err != nil {
		return err
	}
	defer t.tearDown()
	res.Attempted += t.attempted
	res.Failed += t.failed
	tracedMetrics(tr, m)
	plain := median(append(append([]float64(nil), u.putLat...), u.getLat...))
	traced := median(append(append([]float64(nil), t.putLat...), t.getLat...))
	m.set("ecload.trace_overhead_frac", ratio(traced-plain, plain), len(t.putLat)+len(t.getLat))
	return stageReplay(ctx, m, t.w.size, t.cl.osdURLs[1], t.cl.wd.path, budget)
}

// print writes every metric by name with unit, sample count and bound,
// then the result as one line of JSON in the shape the driver reads.
func (h *harness) print(res result) {
	specs := endToEnd
	if res.Trace == 1 {
		specs = perLayer
	}
	h.say("%s seed=%d seconds=%g trace=%d: correct=%v attempted=%d failed=%d",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Correct, res.Attempted, res.Failed)
	for _, s := range specs {
		v := res.Metrics[s.Name]
		bound := "per-layer, no bound"
		if res.Trace == 0 {
			bound = fmt.Sprintf("may worsen %g%%", s.Bound*100)
		}
		h.say("  %-42s %14.6g %-6s n=%-8d %s is better; %s", s.Name, v.Value, s.Unit, v.Samples, s.Better, bound)
	}
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]driverMetric{}}
	for name, v := range res.Metrics {
		line.Metrics[name] = driverMetric{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings; NaN and Inf were refused above
	}
	h.say("%s", data)
}

// provenance says what produced a report.
type provenance struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GFKernel   string `json:"gf_kernel"`
	GFNI       bool   `json:"gfni"`
	CreatedAt  string `json:"created_at"`
}

func (h *harness) provenance() provenance {
	sha := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = h.root
	if out, err := cmd.Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return provenance{
		GitSHA: sha, GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GFKernel: gf.ActiveKernel().String(), GFNI: gf.HasGFNI(),
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
	}
}

// reportFile is what -out writes and -compare reads.
type reportFile struct {
	Provenance provenance   `json:"provenance"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
	Runs       []result     `json:"runs"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ecload", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "one of svc-large, svc-small, svc-degraded, sim-sweep, or all")
		seed     = fs.Int64("seed", 1, "drives key order, payload bytes, op mix and arrival times")
		seconds  = fs.Float64("seconds", 20, "how long a run measures for; op counts are fixed from it")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics and trace.json")
		repeat   = fs.Int("repeat", 1, "runs per workload")
		out      = fs.String("out", "", "add every run to this JSON report")
		check    = fs.Bool("check", false, "run every workload, untraced and traced, at 1/20 scale")
		compare  = fs.Bool("compare", false, "compare two reports: ecload -compare a.json b.json")
		bin      = fs.String("bin", filepath.Join(".bench_build", "bin"), "where the daemons are built")
		work     = fs.String("work", filepath.Join(".bench_build", "ecload"), "scratch directory (WAL, logs); removed on exit")
		traceOut = fs.String("trace-out", filepath.Join(".bench_build", "trace.json"), "where a traced run writes its spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "ecload: -compare needs two report files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "ecload:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	abs := func(p string) string {
		if filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(root, p)
	}
	h := &harness{root: root, binDir: abs(*bin), workRoot: abs(*work), traceOut: abs(*traceOut), setups: 3}

	// A signal cancels the context; every blocking call takes it, so the
	// run unwinds through its defers and the daemons are killed and waited
	// for. (If the harness itself is killed, the kernel kills them.)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if err := os.MkdirAll(filepath.Dir(h.traceOut), 0o755); err != nil {
		return fail(err)
	}
	if err := h.build(ctx); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(h.workRoot)

	names := []string{*workload}
	if *workload == "all" || *check {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	traces := []bool{*trace == 1}
	if *check {
		*seconds, *repeat, h.setups = checkSeconds, 1, 1
		traces = []bool{false, true}
	}

	// -out appends to a report that exists, so a set of runs can be built
	// one process per run, the way the driver runs them.
	rep := reportFile{Provenance: h.provenance(), EndToEnd: endToEnd, PerLayer: perLayer}
	if *out != "" {
		if old, err := loadReport(*out); err == nil {
			rep.Runs = old.Runs
		} else if !errors.Is(err, os.ErrNotExist) {
			return fail(err)
		}
	}
	h.say("ecload: %+v", rep.Provenance)
	ok := true
	for _, name := range names {
		for _, traced := range traces {
			for i := 0; i < *repeat; i++ {
				res, err := h.runOnce(ctx, name, *seed, *seconds, traced)
				if err != nil {
					return fail(fmt.Errorf("%s: %w", name, err))
				}
				h.print(res)
				rep.Runs = append(rep.Runs, res)
				ok = ok && res.Correct
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
