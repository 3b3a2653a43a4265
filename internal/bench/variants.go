package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/workload"
)

// cellRun is what a variant may change about a cell: its cluster config,
// its job, and whether the image is prefilled before the job runs.
type cellRun struct {
	cfg     core.Config
	job     workload.Job
	prefill bool
}

// A variant is a named mutation of a cell's run: the Variants axis of a
// Grid. Each switches off one mechanism of the model, sets one parameter,
// or records the run's time series, so that a variant cell and its base
// cell (same seed, see CellKey.seed) differ by that change alone. The
// names:
//
//   - "base" (or ""): the run as the suite builds it;
//   - "cache-off": no stripe cache at the EC primary;
//   - "wal-off": no deferred-write journal in the object store;
//   - "cap-off": no client dispatch serialization;
//   - "pgs-<n>": n placement groups per pool instead of the suite's count;
//   - "series": the base run, sampled into CellReport.Samples (Figs 19-20);
//   - "prefill-writes": the image is prefilled before the job, so every
//     write is an overwrite, and the run is sampled (Fig 20's right side).
//
// The stripe unit is not a variant: it is the Grid's StripeUnits axis.
var variants = map[string]func(*cellRun){
	"":               func(*cellRun) {},
	"cache-off":      func(r *cellRun) { r.cfg.StripeCacheStripes = 0 },
	"wal-off":        func(r *cellRun) { r.cfg.Store.DeferredThreshold = 0 },
	"cap-off":        func(r *cellRun) { r.cfg.Cost.ClientDispatchSerial = 0 },
	"series":         sampled,
	"prefill-writes": func(r *cellRun) { r.prefill = true; sampled(r) },
}

// sampled records the job's time series every tenth of its window, or
// every second once the window reaches 10 s.
func sampled(r *cellRun) {
	r.job.SampleInterval = time.Second
	if r.job.Duration < 10*time.Second {
		r.job.SampleInterval = r.job.Duration / 10
	}
}

// variantMutation returns the run mutation a variant name stands for.
func variantMutation(name string) (func(*cellRun), error) {
	if name == "base" {
		name = ""
	}
	if m, ok := variants[name]; ok {
		return m, nil
	}
	if arg, ok := strings.CutPrefix(name, "pgs-"); ok {
		// One spelling per count, so one config has one cell ID.
		if n, err := strconv.Atoi(arg); err == nil && n > 0 && strconv.Itoa(n) == arg {
			return func(r *cellRun) { r.cfg.PGsPerPool = n }, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown variant %q (want base, cache-off, wal-off, cap-off, pgs-<n>, series or prefill-writes)", name)
}
