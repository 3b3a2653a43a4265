package service

import (
	"context"
	"fmt"
	"sync"

	"ecarray/internal/crush"
	"ecarray/internal/sim"
	"ecarray/internal/ssd"
	"ecarray/internal/store"
)

// SimClusterConfig sizes the in-process virtual cluster.
type SimClusterConfig struct {
	// Hosts × OSDsPerHost OSDs are built, named node0..nodeH-1 for CRUSH
	// failure-domain spreading (the paper's 4-node × 13-OSD array shape).
	Hosts       int
	OSDsPerHost int
	// DeviceBytes is each simulated SSD's capacity (must be a multiple of
	// 1 MiB, the flash block size).
	DeviceBytes int64
	// Seed drives every per-device RNG, so a fixed seed reproduces the
	// exact simulated byte stream and timing.
	Seed int64
}

// DefaultSimClusterConfig returns a small virtual cluster: 3 hosts × 2
// OSDs with 256 MiB devices — enough for RS(6,3)-class schemes while
// booting in milliseconds.
func DefaultSimClusterConfig() SimClusterConfig {
	return SimClusterConfig{Hosts: 3, OSDsPerHost: 2, DeviceBytes: 256 << 20, Seed: 1}
}

func (c *SimClusterConfig) validate() error {
	if c.Hosts <= 0 || c.OSDsPerHost <= 0 {
		return fmt.Errorf("service: sim cluster needs positive hosts and osds-per-host")
	}
	if c.DeviceBytes <= 0 || c.DeviceBytes%(1<<20) != 0 {
		return fmt.Errorf("service: DeviceBytes must be a positive multiple of 1 MiB")
	}
	return nil
}

// simOSD is one virtual OSD: a BlueStore-like object store on a simulated
// SSD. It implements ShardStore; every op runs as a process on the shared
// discrete-event engine, so the simulated cost of the service data path is
// measured for free.
type simOSD struct {
	vc    *SimCluster
	id    int
	host  string
	dev   *ssd.Device
	st    *store.Store
	sizes map[string]int64 // logical shard sizes (store objects are padded)
	state struct {
		bytes int64
		busy  sim.Time // simulated time spent serving this OSD's ops
	}
}

// SimCluster is the simulated cluster behind the ShardStore seam: the
// first pluggable gateway backend, and the one `ecgate -backend=sim`
// boots. One mutex serializes simulated ops (the engine is single-baton),
// which keeps the virtual cluster deterministic: shard bytes, placement
// and op outcomes depend only on the config seed and the op sequence.
type SimCluster struct {
	cfg  SimClusterConfig
	eng  *sim.Engine
	cmap *crush.Map

	mu   sync.Mutex
	osds []*simOSD
}

// NewSimCluster builds the virtual cluster: Hosts×OSDsPerHost simulated
// SSDs with BlueStore-style stores in carry-data mode (the service serves
// real bytes), plus the CRUSH map over them.
func NewSimCluster(cfg SimClusterConfig) (*SimCluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	vc := &SimCluster{cfg: cfg, eng: eng, cmap: crush.Uniform(cfg.Hosts, cfg.OSDsPerHost)}

	devCfg := ssd.DefaultConfig(cfg.DeviceBytes)
	devCfg.CarryData = true
	stCfg := store.DefaultConfig()
	// Shrink the WAL/meta regions to fit small virtual devices; the ratios
	// (not the absolute sizes) drive the amplification behaviour.
	if stCfg.WALRegion*4 > cfg.DeviceBytes {
		stCfg.WALRegion = cfg.DeviceBytes / 4 / stCfg.BlockSize * stCfg.BlockSize
	}
	for id := 0; id < cfg.Hosts*cfg.OSDsPerHost; id++ {
		dev, err := ssd.New(eng, fmt.Sprintf("osd%d/dev", id), devCfg)
		if err != nil {
			return nil, err
		}
		st, err := store.New(eng, dev, stCfg, true)
		if err != nil {
			return nil, err
		}
		o := &simOSD{vc: vc, id: id, host: fmt.Sprintf("node%d", id/cfg.OSDsPerHost), dev: dev, st: st, sizes: map[string]int64{}}
		vc.osds = append(vc.osds, o)
	}
	return vc, nil
}

// Stores returns the cluster's OSDs as ShardStores, indexed by OSD ID.
func (vc *SimCluster) Stores() []ShardStore {
	out := make([]ShardStore, len(vc.osds))
	for i, o := range vc.osds {
		out[i] = o
	}
	return out
}

// CrushMap returns the placement map over the virtual OSDs. The gateway
// places against the full (always-in) map, so shard homes are stable
// across failures and the data path reconstructs around down OSDs instead
// of remapping them.
func (vc *SimCluster) CrushMap() *crush.Map { return vc.cmap }

// OSDs returns the number of OSDs.
func (vc *SimCluster) OSDs() int { return len(vc.osds) }

// SimSeconds returns total simulated time accumulated by the cluster.
func (vc *SimCluster) SimSeconds() float64 {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.eng.Now().Seconds()
}

// run executes one shard op as a simulated process, serialized on the
// cluster mutex (the engine is single-baton). The simulated service time
// is charged to the OSD's busy counter.
func (o *simOSD) run(ctx context.Context, name string, fn func(p *sim.Proc)) error {
	o.vc.mu.Lock()
	defer o.vc.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	before := o.vc.eng.Now()
	o.vc.eng.RunProc(name, fn)
	o.state.busy += o.vc.eng.Now() - before
	return nil
}

// Put implements ShardStore.
func (o *simOSD) Put(ctx context.Context, key string, shard int, data []byte) error {
	name := shardName(key, shard)
	return o.run(ctx, "svc/put", func(p *sim.Proc) {
		if old, ok := o.sizes[name]; ok {
			o.state.bytes -= old
		}
		if len(data) > 0 {
			o.st.Write(p, name, 0, data, int64(len(data)))
		}
		o.sizes[name] = int64(len(data))
		o.state.bytes += int64(len(data))
	})
}

// Get implements ShardStore.
func (o *simOSD) Get(ctx context.Context, key string, shard int) ([]byte, error) {
	name := shardName(key, shard)
	var out []byte
	found := false
	err := o.run(ctx, "svc/get", func(p *sim.Proc) {
		sz, ok := o.sizes[name]
		if !ok {
			return
		}
		found = true
		out = []byte{}
		if sz > 0 {
			out = o.st.Read(p, name, 0, sz)
		}
	})
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, ErrNotFound
	}
	return out, nil
}

// Delete implements ShardStore.
func (o *simOSD) Delete(ctx context.Context, key string, shard int) error {
	name := shardName(key, shard)
	found := false
	err := o.run(ctx, "svc/delete", func(p *sim.Proc) {
		if sz, ok := o.sizes[name]; ok {
			found = true
			delete(o.sizes, name)
			o.state.bytes -= sz
			o.st.Delete(p, name)
		}
	})
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	return nil
}

// Stat implements ShardStore.
func (o *simOSD) Stat(ctx context.Context) (OSDStat, error) {
	o.vc.mu.Lock()
	defer o.vc.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return OSDStat{}, err
	}
	return OSDStat{
		ID:         o.id,
		Backend:    "sim",
		Host:       o.host,
		Shards:     int64(len(o.sizes)),
		Bytes:      o.state.bytes,
		SimSeconds: o.state.busy.Seconds(),
	}, nil
}
