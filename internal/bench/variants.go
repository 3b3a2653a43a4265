package bench

import (
	"fmt"
	"strconv"
	"strings"

	"ecarray/internal/core"
)

// A variant is a named mutation of a cell's cluster config: the Variants
// axis of a Grid. Each switches off one mechanism of the model, or sets
// one parameter, so that a variant cell and its base cell (same seed, see
// CellKey.seed) differ by that mechanism alone. The names:
//
//   - "base" (or ""): the config as the suite builds it;
//   - "cache-off": no stripe cache at the EC primary;
//   - "wal-off": no deferred-write journal in the object store;
//   - "cap-off": no client dispatch serialization;
//   - "pgs-<n>": n placement groups per pool instead of the suite's count.
//
// The stripe unit is not a variant: it is the Grid's StripeUnits axis.
var variants = map[string]func(*core.Config){
	"":          func(*core.Config) {},
	"cache-off": func(c *core.Config) { c.StripeCacheStripes = 0 },
	"wal-off":   func(c *core.Config) { c.Store.DeferredThreshold = 0 },
	"cap-off":   func(c *core.Config) { c.Cost.ClientDispatchSerial = 0 },
}

// variantMutation returns the config mutation a variant name stands for.
func variantMutation(name string) (func(*core.Config), error) {
	if name == "base" {
		name = ""
	}
	if m, ok := variants[name]; ok {
		return m, nil
	}
	if arg, ok := strings.CutPrefix(name, "pgs-"); ok {
		// One spelling per count, so one config has one cell ID.
		if n, err := strconv.Atoi(arg); err == nil && n > 0 && strconv.Itoa(n) == arg {
			return func(c *core.Config) { c.PGsPerPool = n }, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown variant %q (want base, cache-off, wal-off, cap-off or pgs-<n>)", name)
}
