package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the transient fault the FaultStore injects in place of a
// real op: the model of a dropped packet / reset connection. The gateway
// classifies it retryable.
var ErrInjected = errors.New("service: injected fault")

// FaultSpec is one OSD's network-fault injection profile, and the only
// way an OSD fails in the service: {"partition":true} kills it, {} heals
// it. All fields are runtime-settable through POST /v1/faults/{osd} on
// ecgate (JSON body in exactly this shape; unknown fields are rejected),
// whatever the backend, and a zero spec is a no-op.
type FaultSpec struct {
	// ErrorProb injects ErrInjected with this probability before the op
	// reaches the store (the op never executes).
	ErrorProb float64 `json:"error_prob,omitempty"`
	// LatencyMult >1 inflates each op's measured duration by sleeping an
	// extra (mult-1)×elapsed after it completes — a slow link/daemon.
	LatencyMult float64 `json:"latency_mult,omitempty"`
	// DelayMs adds a fixed stall before every op.
	DelayMs int `json:"delay_ms,omitempty"`
	// StuckProb stalls the op for StuckMs with this probability (0 ms =
	// hang until the caller's deadline) — the hedged-read trigger.
	StuckProb float64 `json:"stuck_prob,omitempty"`
	StuckMs   int     `json:"stuck_ms,omitempty"`
	// Partition fails every op immediately with ErrOSDDown: a full
	// network partition from this OSD.
	Partition bool `json:"partition,omitempty"`
}

// Active reports whether any fault is configured.
func (s FaultSpec) Active() bool { return s != FaultSpec{} }

func (s FaultSpec) validate() error {
	if s.ErrorProb < 0 || s.ErrorProb > 1 || s.StuckProb < 0 || s.StuckProb > 1 {
		return fmt.Errorf("service: fault probabilities must be in [0,1]")
	}
	if s.LatencyMult < 0 {
		return fmt.Errorf("service: latency_mult must be >= 0")
	}
	if s.DelayMs < 0 || s.StuckMs < 0 {
		return fmt.Errorf("service: delays must be >= 0")
	}
	return nil
}

// FaultStats counts what the wrapper actually injected.
type FaultStats struct {
	Errors      int64 `json:"errors"`
	Stalls      int64 `json:"stalls"`
	Partitioned int64 `json:"partitioned"`
	Delayed     int64 `json:"delayed"`
}

// FaultStatus is one row of GET /v1/faults.
type FaultStatus struct {
	OSD   int        `json:"osd"`
	Spec  FaultSpec  `json:"spec"`
	Stats FaultStats `json:"stats"`
}

// FaultStore wraps a ShardStore with deterministic, seeded network-fault
// injection at the service tier — the HTTP-path sibling of the simulator's
// gray-failure knobs. With a zero spec every op passes straight through;
// with a fixed seed and a serial op stream the injected outcome sequence
// is reproducible, so chaos runs over real sockets can be replayed.
type FaultStore struct {
	inner ShardStore
	osd   int

	mu   sync.Mutex
	rng  *rand.Rand
	spec FaultSpec

	errors      atomic.Int64
	stalls      atomic.Int64
	partitioned atomic.Int64
	delayed     atomic.Int64
}

// NewFaultStore wraps inner as OSD osd with a seeded fault RNG.
func NewFaultStore(inner ShardStore, osd int, seed int64) *FaultStore {
	// Fold the OSD id into the seed so a fleet built from one config seed
	// still draws independent per-OSD sequences.
	return &FaultStore{
		inner: inner,
		osd:   osd,
		rng:   rand.New(rand.NewSource(seed*1000003 + int64(osd)*7919 + 1)),
	}
}

// SetFault replaces the injection profile.
func (f *FaultStore) SetFault(spec FaultSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	f.mu.Lock()
	f.spec = spec
	f.mu.Unlock()
	return nil
}

// Fault returns the current injection profile.
func (f *FaultStore) Fault() FaultSpec {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.spec
}

// FaultStats returns the injection counters.
func (f *FaultStore) FaultStats() FaultStats {
	return FaultStats{
		Errors:      f.errors.Load(),
		Stalls:      f.stalls.Load(),
		Partitioned: f.partitioned.Load(),
		Delayed:     f.delayed.Load(),
	}
}

// sleep stalls for d honouring ctx; d <= 0 hangs until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		<-ctx.Done()
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return ctx.Err()
	}
}

// inject runs fn under the current fault spec. Draw order (partition →
// stuck → error) is fixed so a given seed and op sequence reproduces the
// same outcomes regardless of timing.
func (f *FaultStore) inject(ctx context.Context, fn func(ctx context.Context) error) error {
	f.mu.Lock()
	spec := f.spec
	var stuck, errHit bool
	if spec.StuckProb > 0 {
		stuck = f.rng.Float64() < spec.StuckProb
	}
	if spec.ErrorProb > 0 {
		errHit = f.rng.Float64() < spec.ErrorProb
	}
	f.mu.Unlock()

	if spec.Partition {
		f.partitioned.Add(1)
		return fmt.Errorf("%w: injected partition (osd %d)", ErrOSDDown, f.osd)
	}
	if stuck {
		f.stalls.Add(1)
		if err := sleep(ctx, time.Duration(spec.StuckMs)*time.Millisecond); err != nil {
			return err
		}
	}
	if spec.DelayMs > 0 {
		f.delayed.Add(1)
		if err := sleep(ctx, time.Duration(spec.DelayMs)*time.Millisecond); err != nil {
			return err
		}
	}
	if errHit {
		f.errors.Add(1)
		return fmt.Errorf("%w (osd %d)", ErrInjected, f.osd)
	}
	start := time.Now()
	err := fn(ctx)
	if spec.LatencyMult > 1 {
		if serr := sleep(ctx, time.Duration(float64(time.Since(start))*(spec.LatencyMult-1))); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// Put implements ShardStore.
func (f *FaultStore) Put(ctx context.Context, key string, shard int, data []byte) error {
	return f.inject(ctx, func(ctx context.Context) error {
		return f.inner.Put(ctx, key, shard, data)
	})
}

// Get implements ShardStore.
func (f *FaultStore) Get(ctx context.Context, key string, shard int) ([]byte, error) {
	var out []byte
	err := f.inject(ctx, func(ctx context.Context) error {
		var e error
		out, e = f.inner.Get(ctx, key, shard)
		return e
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Delete implements ShardStore.
func (f *FaultStore) Delete(ctx context.Context, key string, shard int) error {
	return f.inject(ctx, func(ctx context.Context) error {
		return f.inner.Delete(ctx, key, shard)
	})
}

// Stat implements ShardStore. Stat is deliberately not error/latency
// injected (so /v1/osds stays usable mid-chaos) except under a full
// partition, which cuts the management path too.
func (f *FaultStore) Stat(ctx context.Context) (OSDStat, error) {
	f.mu.Lock()
	part := f.spec.Partition
	f.mu.Unlock()
	if part {
		return OSDStat{}, fmt.Errorf("%w: injected partition (osd %d)", ErrOSDDown, f.osd)
	}
	return f.inner.Stat(ctx)
}
