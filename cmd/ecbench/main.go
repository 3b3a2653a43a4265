// Command ecbench reproduces the paper's evaluation on the simulated
// cluster: single figures as aligned tables, composed fault scenarios,
// mechanism ablations, and full paper-scale sweep campaigns serialized as
// machine-readable BENCH_*.json reports.
//
// Usage:
//
//	ecbench [-fig all|fig1|fig5|...|fig20] [-scale smoke|quick|paper]
//	        [-ablations] [-scenarios]
//	        [-sweep] [-out BENCH.json] [-shard i/n]
//	        [-compare old.json new.json]
//	        [-merge merged.json shard0.json shard1.json ...]
//	        [-duration 8s] [-image 32] [-qd 256] [-csvdir out/]
//	        [-codec-kernel auto|scalar|avx2|fused|gfni] [-codec-conc n]
//	        [-calibrate]
//
// Modes (mutually exclusive; combining them is a usage error):
//
//	(default)  reproduce figures (-fig selects one)
//	-scenarios composed fault/recovery experiments
//	-ablations mechanism ablations
//	-sweep     run the -scale sweep grid and write a BenchReport JSON
//	           (-out names the file, default BENCH_<sha>.json; -shard i/n
//	           runs every n-th cell for CI matrix legs). -out or -shard
//	           alone imply -sweep.
//	-compare   diff two reports with noise-aware thresholds; exits 1 on
//	           regression — the CI gate
//	-merge     merge shard reports into one (first argument is the output)
//
// Scale "paper" is the full campaign — 52-OSD array, 1KB..128KB blocks,
// stripe-unit and codec-kernel axes (hours serially; shard it); "quick"
// is a reduced sweep for iteration; "smoke" finishes in tens of seconds
// and is what CI runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ecarray/internal/bench"
	"ecarray/internal/gf"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce (fig1, fig5..fig20, or all)")
	ablations := flag.Bool("ablations", false, "run the mechanism ablations instead of figures")
	scenarios := flag.Bool("scenarios", false, "run the composed fault/recovery scenarios instead of figures")
	sweep := flag.Bool("sweep", false, "run the -scale sweep grid and emit a BenchReport JSON")
	out := flag.String("out", "", "sweep report output path (implies -sweep; default BENCH_<sha>.json)")
	shard := flag.String("shard", "", "run shard i of n sweep cells, as \"i/n\" (implies -sweep)")
	compare := flag.Bool("compare", false, "compare two reports: ecbench -compare old.json new.json")
	merge := flag.Bool("merge", false, "merge shard reports: ecbench -merge merged.json shard.json...")
	scale := flag.String("scale", "quick", "preset: smoke, quick or paper")
	duration := flag.Duration("duration", 0, "override measurement window per run")
	imageGiB := flag.Int64("image", 0, "override image size in GiB")
	qd := flag.Int("qd", 0, "override queue depth")
	csvdir := flag.String("csvdir", "", "also write each table as CSV into this directory")
	codecKernel := flag.String("codec-kernel", "auto",
		"GF kernel tier for the RS codec: auto, scalar, avx2, fused or gfni")
	codecConc := flag.Int("codec-conc", 0, "max codec worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	calibrate := flag.Bool("calibrate", false, "derive simulated encode cost from the real codec's measured MB/s")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	thrMBps := flag.Float64("thr-mbps", 0, "compare: max fractional per-cell throughput drop (0 = default 0.10)")
	thrLatency := flag.Float64("thr-latency", 0, "compare: max fractional per-cell latency rise (0 = default 0.15)")
	thrEvents := flag.Float64("thr-events", 0, "compare: max fractional engine events/sec drop (0 = default 0.50)")
	flag.Parse()

	// Mode resolution and conflict detection: silently ignoring one of two
	// contradictory flags produced confusing half-runs, so contradictions
	// are now usage errors.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	mode, err := chooseMode(modeFlags{
		FigSet:    explicit["fig"],
		Ablations: *ablations,
		Scenarios: *scenarios,
		Sweep:     *sweep || *out != "" || *shard != "",
		Compare:   *compare,
		Merge:     *merge,
	})
	if err != nil {
		usageError(err)
	}
	switch mode {
	case "compare":
		if flag.NArg() != 2 {
			usageError(fmt.Errorf("-compare takes exactly two report paths, got %d", flag.NArg()))
		}
	case "merge":
		if flag.NArg() < 2 {
			usageError(fmt.Errorf("-merge takes an output path and at least one input report, got %d args", flag.NArg()))
		}
	default:
		if flag.NArg() != 0 {
			usageError(fmt.Errorf("unexpected arguments: %v", flag.Args()))
		}
	}
	if (*thrMBps != 0 || *thrLatency != 0 || *thrEvents != 0) && mode != "compare" {
		usageError(fmt.Errorf("-thr-* flags only apply to -compare"))
	}
	if *csvdir != "" && (mode == "compare" || mode == "merge" || mode == "sweep") {
		usageError(fmt.Errorf("-csvdir does not apply to -%s (sweep output is the JSON report)", mode))
	}
	if mode == "sweep" && explicit["codec-kernel"] {
		usageError(fmt.Errorf("-codec-kernel does not apply to -sweep: the kernel is a grid axis, set per cell by the preset"))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// fatal() exits without running defers; register the flush there so
		// a failing run still leaves a usable profile.
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopProfile()
	}

	switch mode {
	case "compare":
		runCompare(flag.Arg(0), flag.Arg(1), bench.Thresholds{
			ThroughputDropFrac:   *thrMBps,
			LatencyRiseFrac:      *thrLatency,
			EventsPerSecDropFrac: *thrEvents,
		})
		return
	case "merge":
		runMerge(flag.Arg(0), flag.Args()[1:])
		return
	}

	kern, ok := gf.ParseKernel(*codecKernel)
	if !ok {
		usageError(fmt.Errorf("unknown codec kernel %q", *codecKernel))
	}
	gf.SetKernel(kern)

	var opt bench.Options
	var grid bench.Grid
	if mode == "sweep" {
		opt, grid, err = bench.SweepPreset(*scale)
		if err != nil {
			usageError(err)
		}
	} else {
		switch *scale {
		case "smoke":
			opt = bench.Smoke()
		case "quick":
			opt = bench.Quick()
		case "paper":
			opt = bench.Paper()
		default:
			usageError(fmt.Errorf("unknown scale %q", *scale))
		}
	}
	if *duration > 0 {
		opt.Duration = *duration
	}
	if *imageGiB > 0 {
		opt.ImageSize = *imageGiB << 30
	}
	if *qd > 0 {
		opt.QueueDepth = *qd
	}
	opt.CodecConcurrency = *codecConc
	opt.CodecKernel = *codecKernel
	opt.CalibrateEncode = *calibrate
	if *calibrate {
		workers := opt.CodecConcurrency
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		fmt.Printf("codec: kernel=%s (avx2=%v gfni=%v) workers=%d (encode cost calibrated from measured MB/s; tables note the producing kernel)\n",
			gf.ActiveKernel(), gf.Accelerated(), gf.HasGFNI(), workers)
	}

	suite, err := bench.NewSuite(opt)
	if err != nil {
		fatal(err)
	}

	if mode == "sweep" {
		runSweep(suite, *scale, grid, *shard, *out)
		return
	}

	var tables []bench.Table
	start := time.Now()
	switch {
	case mode == "scenarios":
		tables, err = suite.RunAllScenarios()
	case mode == "ablations":
		tables, err = suite.RunAllAblations()
	case *fig == "all":
		tables, err = suite.RunAll()
	default:
		tables, err = suite.RunFigure(*fig)
	}
	if err != nil {
		fatal(err)
	}

	for _, t := range tables {
		fmt.Println(t.Format())
	}
	fmt.Printf("reproduced %d table(s) in %s (simulated window %s per run)\n",
		len(tables), time.Since(start).Round(time.Second), opt.Duration)
	if line := suite.EngineReport(); line != "" {
		fmt.Println(line)
	}

	if *csvdir != "" {
		if err := os.MkdirAll(*csvdir, 0o755); err != nil {
			fatal(err)
		}
		for _, t := range tables {
			name := filepath.Join(*csvdir, strings.ReplaceAll(t.ID, "/", "_")+".csv")
			if err := os.WriteFile(name, []byte(t.CSV()), 0o644); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("wrote %d CSV files to %s\n", len(tables), *csvdir)
	}
}

// modeFlags captures which mode-selecting flags the user set.
type modeFlags struct {
	FigSet    bool // -fig passed explicitly
	Ablations bool
	Scenarios bool
	Sweep     bool // -sweep, -out or -shard
	Compare   bool
	Merge     bool
}

// chooseMode resolves the run mode, rejecting contradictory combinations
// (e.g. -compare with -scenarios) instead of silently ignoring one.
func chooseMode(f modeFlags) (string, error) {
	var picked []string
	if f.Ablations {
		picked = append(picked, "ablations")
	}
	if f.Scenarios {
		picked = append(picked, "scenarios")
	}
	if f.Sweep {
		picked = append(picked, "sweep")
	}
	if f.Compare {
		picked = append(picked, "compare")
	}
	if f.Merge {
		picked = append(picked, "merge")
	}
	switch len(picked) {
	case 0:
		return "figures", nil
	case 1:
		if f.FigSet && picked[0] != "figures" {
			return "", fmt.Errorf("-fig cannot be combined with -%s", picked[0])
		}
		return picked[0], nil
	}
	return "", fmt.Errorf("conflicting modes: -%s", strings.Join(picked, " and -"))
}

// parseShard parses "i/n" into (i, n). An empty string is the whole grid.
func parseShard(s string) (idx, count int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("shard %q is not of the form i/n", s)
	}
	idx, err = strconv.Atoi(i)
	if err != nil {
		return 0, 0, fmt.Errorf("shard index %q: %v", i, err)
	}
	count, err = strconv.Atoi(n)
	if err != nil {
		return 0, 0, fmt.Errorf("shard count %q: %v", n, err)
	}
	if count <= 0 || idx < 0 || idx >= count {
		return 0, 0, fmt.Errorf("shard %d/%d out of range", idx, count)
	}
	return idx, count, nil
}

// gitSHA best-efforts the current commit for report provenance: the CI
// environment first, then the repository itself.
func gitSHA() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSweep executes the sweep grid (or one shard of it) and writes the
// report JSON.
func runSweep(suite *bench.Suite, preset string, grid bench.Grid, shardSpec, outPath string) {
	shardIdx, shardCount, err := parseShard(shardSpec)
	if err != nil {
		usageError(err)
	}
	sha := gitSHA()
	if outPath == "" {
		short := sha
		if len(short) > 12 {
			short = short[:12]
		}
		outPath = fmt.Sprintf("BENCH_%s.json", short)
	}
	start := time.Now()
	report, err := suite.RunSweep(preset, grid, shardIdx, shardCount, func(done, total int, id string) {
		fmt.Printf("[%d/%d] %s\n", done, total, id)
	})
	if err != nil {
		fatal(err)
	}
	report.GitSHA = sha
	t := report.Summary()
	fmt.Println(t.Format())
	if line := suite.EngineReport(); line != "" {
		fmt.Println(line)
	}
	if err := report.WriteFile(outPath); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d cell(s) to %s in %.1fs elapsed on %d worker(s) (shard %d/%d)\n",
		len(report.Cells), outPath, time.Since(start).Seconds(), bench.SweepWorkers(len(report.Cells)), shardIdx, shardCount)
}

// runCompare diffs two reports and exits non-zero on regression: the CI
// gate behind the bench trajectory.
func runCompare(oldPath, newPath string, th bench.Thresholds) {
	old, err := bench.LoadReport(oldPath)
	if err != nil {
		fatal(err)
	}
	new, err := bench.LoadReport(newPath)
	if err != nil {
		fatal(err)
	}
	res, err := bench.CompareReports(old, new, th)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Format())
	if !res.Ok() {
		os.Exit(1)
	}
}

// runMerge combines shard reports into one.
func runMerge(outPath string, inputs []string) {
	var reports []*bench.BenchReport
	for _, path := range inputs {
		r, err := bench.LoadReport(path)
		if err != nil {
			fatal(err)
		}
		reports = append(reports, r)
	}
	merged, err := bench.MergeReports(reports...)
	if err != nil {
		fatal(err)
	}
	if err := merged.WriteFile(outPath); err != nil {
		fatal(err)
	}
	fmt.Printf("merged %d report(s), %d cell(s) -> %s (digest %s)\n",
		len(reports), len(merged.Cells), outPath, merged.DeterministicDigest())
}

// usageError prints the message plus usage and exits 2, the conventional
// bad-invocation status.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "ecbench:", err)
	flag.Usage()
	os.Exit(2)
}

// stopProfile flushes an active CPU profile; fatal runs it because os.Exit
// skips deferred calls.
var stopProfile = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ecbench:", err)
	stopProfile()
	os.Exit(1)
}
