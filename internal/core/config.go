package core

import (
	"fmt"
	"time"

	"ecarray/internal/gf"
	"ecarray/internal/netsim"
	"ecarray/internal/ssd"
	"ecarray/internal/store"
)

// validCodecKernel reports whether name is a known GF kernel tier (empty
// means "leave the process-wide selection alone").
func validCodecKernel(name string) bool {
	if name == "" {
		return true
	}
	_, ok := gf.ParseKernel(name)
	return ok
}

// Config describes the cluster to build. The zero value is not valid; start
// from DefaultConfig.
type Config struct {
	// StorageNodes is the number of storage servers (paper: 4).
	StorageNodes int
	// OSDsPerNode is the number of OSD daemons (and devices) per storage
	// node (paper: 6 RAID-0 pairs of Intel 730s).
	OSDsPerNode int
	// CoresPerStorageNode is the CPU core count per storage node (paper: 24,
	// for 96 cluster cores total).
	CoresPerStorageNode int
	// ClientCores is the client node's core count (paper: 36).
	ClientCores int

	// DeviceCapacity is each OSD device's logical capacity in bytes.
	DeviceCapacity int64

	// PGsPerPool is the number of placement groups per pool (paper: 1024
	// per image pool).
	PGsPerPool int

	// ObjectSize is the RADOS object size (paper/Ceph default: 4 MiB).
	ObjectSize int64
	// StripeUnit is the EC chunk size n, so stripe width = k*n (paper: 4 KiB).
	StripeUnit int64

	// OSDWorkers is the number of op worker threads per OSD.
	OSDWorkers int

	// StripeCacheStripes is the per-PG stripe cache capacity at the primary
	// (absorbs consecutive sequential EC reads, §IV-B). Zero disables it.
	StripeCacheStripes int

	// Public and Private describe the two 10 Gb networks.
	Public  netsim.Config
	Private netsim.Config

	// Device is the SSD model configuration (capacity overridden per
	// device by DeviceCapacity).
	Device ssd.Config
	// Store is the object-store configuration.
	Store store.Config

	// Cost is the software cost model.
	Cost CostModel

	// Gray holds the gray-failure tolerance knobs (shard timeouts, hedged
	// reads, health scoring, circuit breaker). The zero value disables the
	// whole subsystem; see DefaultGrayConfig for tuned defaults.
	Gray GrayConfig

	// QoS wires a multi-tenant admission policy in front of the pools
	// (see qos.go). The zero value disables admission control — the op
	// path is then byte-identical to a QoS-less build.
	QoS QoSConfig

	// CarryData runs real bytes end to end (client → striping → encoding →
	// store → flash and back), with parity actually computed and verified.
	// Keep clusters small in this mode.
	CarryData bool

	// CodecConcurrency is the maximum number of goroutines the RS codec
	// hot path (Encode/Reconstruct/UpdateParity in carry mode) shards work
	// across. 0 selects GOMAXPROCS; 1 forces the serial codec. Codec
	// output is byte-identical at every setting, so simulated metrics stay
	// deterministic regardless of the knob.
	CodecConcurrency int

	// CodecKernel selects the GF(2^8) kernel tier the real codec runs on:
	// "" or "auto" (fastest available), "scalar", "avx2", "fused", or
	// "gfni". The selection is process-wide (the kernel tables
	// are global); every tier is byte-identical, so — like the concurrency
	// knob — it changes wall-clock time and calibrated encode cost, never
	// simulated metrics.
	CodecKernel string

	// Seed drives all stochastic model components.
	Seed int64
}

// DefaultConfig returns a cluster shaped like the paper's testbed. The
// device capacity defaults to 64 GiB per OSD (a scaled stand-in for the
// 500 GB RAID-0 pairs) so full sweeps fit in memory; raise it for
// full-scale runs.
func DefaultConfig() Config {
	return Config{
		StorageNodes:        4,
		OSDsPerNode:         6,
		CoresPerStorageNode: 24,
		ClientCores:         36,
		DeviceCapacity:      64 << 30,
		PGsPerPool:          1024,
		ObjectSize:          4 << 20,
		StripeUnit:          4 << 10,
		OSDWorkers:          8,
		StripeCacheStripes:  64,
		Public:              netsim.TenGbE("public"),
		Private:             netsim.TenGbE("private"),
		Device:              ssd.DefaultConfig(64 << 30),
		Store:               store.DefaultConfig(),
		Cost:                DefaultCostModel(),
		Seed:                1,
	}
}

// TotalOSDs returns the cluster's OSD (and device) count.
func (c *Config) TotalOSDs() int { return c.StorageNodes * c.OSDsPerNode }

// PaperScaleConfig returns a cluster shaped like the paper's full 52-SSD
// array (§III: the scalable testbed the headline sweeps run on): the four
// storage nodes of DefaultConfig, but with 13 OSDs each for 52 devices
// total. Everything else keeps the DefaultConfig calibration, so results
// differ from the small cluster only through scale — more PG parallelism,
// wider CRUSH placement, more aggregate flash. This is the shape behind
// the bench package's paper-scale sweep preset.
func PaperScaleConfig() Config {
	cfg := DefaultConfig()
	cfg.OSDsPerNode = 13
	return cfg
}

func (c *Config) validate() error {
	switch {
	case c.StorageNodes <= 0 || c.OSDsPerNode <= 0:
		return fmt.Errorf("core: need at least one storage node and OSD")
	case c.CoresPerStorageNode <= 0 || c.ClientCores <= 0:
		return fmt.Errorf("core: core counts must be positive")
	case c.PGsPerPool <= 0:
		return fmt.Errorf("core: PGsPerPool must be positive")
	case c.ObjectSize <= 0 || c.StripeUnit <= 0:
		return fmt.Errorf("core: object size and stripe unit must be positive")
	case c.ObjectSize%c.StripeUnit != 0:
		return fmt.Errorf("core: object size must be a multiple of the stripe unit")
	case c.OSDWorkers <= 0:
		return fmt.Errorf("core: OSDWorkers must be positive")
	case c.StripeCacheStripes < 0:
		return fmt.Errorf("core: negative stripe cache size")
	case c.DeviceCapacity <= 0:
		return fmt.Errorf("core: device capacity must be positive")
	case c.CodecConcurrency < 0:
		return fmt.Errorf("core: negative codec concurrency")
	case !validCodecKernel(c.CodecKernel):
		return fmt.Errorf("core: unknown codec kernel %q", c.CodecKernel)
	case c.Cost.HeartbeatInterval <= 0:
		return fmt.Errorf("core: heartbeat interval must be positive")
	}
	if err := c.QoS.validate(); err != nil {
		return err
	}
	return c.Gray.validate()
}

// Profile selects a pool's fault-tolerance mechanism: replication or
// Reed-Solomon erasure coding (the paper's §II-B alternatives).
type Profile struct {
	// Replicas > 0 selects replication with that many copies.
	Replicas int
	// K, M > 0 select RS(K,M) erasure coding.
	K, M int
}

// ProfileReplicated returns an n-replica profile (paper default: 3).
func ProfileReplicated(n int) Profile { return Profile{Replicas: n} }

// ProfileEC returns an RS(k,m) profile.
func ProfileEC(k, m int) Profile { return Profile{K: k, M: m} }

// IsEC reports whether the profile is erasure-coded.
func (p Profile) IsEC() bool { return p.K > 0 }

// Width returns how many OSDs every PG of this profile spans.
func (p Profile) Width() int {
	if p.IsEC() {
		return p.K + p.M
	}
	return p.Replicas
}

func (p Profile) validate() error {
	ec := p.K > 0 || p.M > 0
	if ec {
		if p.Replicas != 0 {
			return fmt.Errorf("core: profile cannot be both replicated and EC")
		}
		if p.K <= 0 || p.M <= 0 {
			return fmt.Errorf("core: EC profile needs positive k and m")
		}
		return nil
	}
	if p.Replicas <= 0 {
		return fmt.Errorf("core: replicated profile needs at least 1 replica")
	}
	return nil
}

// String names the profile the way the paper does ("3-Rep", "RS(6,3)").
func (p Profile) String() string {
	if p.IsEC() {
		return fmt.Sprintf("RS(%d,%d)", p.K, p.M)
	}
	return fmt.Sprintf("%d-Rep", p.Replicas)
}

var _ = time.Second
