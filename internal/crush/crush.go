// Package crush implements deterministic, pseudo-random data placement in
// the style of Ceph's CRUSH algorithm (Weil et al., SC'06), which the
// reproduced paper's cluster uses to map placement groups (PGs) to ordered
// OSD lists (§II-A).
//
// Placement uses straw2 selection: every candidate device draws a "straw"
// scaled by its weight from a hash of (pg, device, attempt), and the longest
// straw wins. straw2 gives each device a share proportional to its weight
// and — critically for failure handling — changing one device's weight only
// moves mappings to or from that device.
//
// Selection spreads replicas/shards across failure domains (hosts): no host
// receives more than ceil(n/#hosts) of a PG's devices, mirroring the
// paper's 4-node cluster where RS(10,4)'s 14 shards must share hosts while
// 3-replication lands on 3 distinct hosts.
package crush

import (
	"fmt"
	"math"
)

// Device is one placement target (an OSD's disk).
type Device struct {
	ID     int
	Host   string
	Weight float64 // relative capacity; 0 means out
}

// Map is an immutable cluster description plus mutable device in/out state.
type Map struct {
	devices []Device
	hostIdx map[string]int
	out     []bool
}

// NewMap builds a map from a device list. Device IDs must be 0..n-1 in
// order; weights must be non-negative; at least one device must have
// positive weight.
func NewMap(devices []Device) (*Map, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("crush: no devices")
	}
	m := &Map{
		devices: append([]Device(nil), devices...),
		hostIdx: map[string]int{},
		out:     make([]bool, len(devices)),
	}
	anyWeight := false
	for i, d := range devices {
		if d.ID != i {
			return nil, fmt.Errorf("crush: device IDs must be dense and ordered (got %d at %d)", d.ID, i)
		}
		if d.Weight < 0 {
			return nil, fmt.Errorf("crush: negative weight on device %d", d.ID)
		}
		if d.Weight > 0 {
			anyWeight = true
		}
		if _, ok := m.hostIdx[d.Host]; !ok {
			m.hostIdx[d.Host] = len(m.hostIdx)
		}
	}
	if !anyWeight {
		return nil, fmt.Errorf("crush: all devices have zero weight")
	}
	return m, nil
}

// Uniform builds a map of hosts×perHost equally weighted devices with hosts
// named "node0".."nodeH-1", matching the paper's testbed shape (4 storage
// nodes × 6 OSDs).
func Uniform(hosts, perHost int) *Map {
	if hosts <= 0 || perHost <= 0 {
		panic("crush: hosts and perHost must be positive")
	}
	devs := make([]Device, 0, hosts*perHost)
	for h := 0; h < hosts; h++ {
		for d := 0; d < perHost; d++ {
			devs = append(devs, Device{
				ID:     h*perHost + d,
				Host:   fmt.Sprintf("node%d", h),
				Weight: 1,
			})
		}
	}
	m, err := NewMap(devs)
	if err != nil {
		panic(err)
	}
	return m
}

// Devices returns the number of devices (in or out).
func (m *Map) Devices() int { return len(m.devices) }

// Host returns the host of a device.
func (m *Map) Host(dev int) string { return m.devices[dev].Host }

// MarkOut removes a device from placement (simulating failure).
func (m *Map) MarkOut(dev int) { m.out[dev] = true }

// MarkIn restores a device to placement.
func (m *Map) MarkIn(dev int) { m.out[dev] = false }

// aliveHosts counts hosts with at least one in, positively weighted device.
func (m *Map) aliveHosts() int {
	seen := map[string]bool{}
	for i, d := range m.devices {
		if !m.out[i] && d.Weight > 0 {
			seen[d.Host] = true
		}
	}
	return len(seen)
}

// mix64 is splitmix64's finalizer: a fast, well-distributed 64-bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash01 maps (pg, dev, attempt) to (0,1].
func hash01(pg uint64, dev, attempt int) float64 {
	h := mix64(pg ^ mix64(uint64(dev)<<20^uint64(attempt)))
	// 53 significant bits, avoiding exactly 0.
	return (float64(h>>11) + 1) / float64(1<<53)
}

// Select maps a PG to an ordered list of n distinct in-devices using straw2,
// spreading across hosts so no host exceeds ceil(n/aliveHosts) devices. The
// first device is the PG's primary. It returns an error when fewer than n
// devices are available.
func (m *Map) Select(pg uint64, n int) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("crush: non-positive selection size")
	}
	alive := 0
	for i, d := range m.devices {
		if !m.out[i] && d.Weight > 0 {
			alive++
		}
	}
	if alive < n {
		return nil, fmt.Errorf("crush: need %d devices, only %d in", n, alive)
	}
	hostsAlive := m.aliveHosts()
	perHostCap := (n + hostsAlive - 1) / hostsAlive

	chosen := make([]int, 0, n)
	taken := make([]bool, len(m.devices))
	hostCount := map[string]int{}

	for r := 0; len(chosen) < n; r++ {
		best, bestStraw := -1, math.Inf(-1)
		relaxed := r >= len(m.devices) // give up host spreading if stuck
		for i, d := range m.devices {
			if taken[i] || m.out[i] || d.Weight == 0 {
				continue
			}
			if !relaxed && hostCount[d.Host] >= perHostCap {
				continue
			}
			// straw2 draw: ln(u)/w — higher is better.
			straw := math.Log(hash01(pg, i, r)) / d.Weight
			if straw > bestStraw {
				bestStraw = straw
				best = i
			}
		}
		if best < 0 {
			if relaxed {
				return nil, fmt.Errorf("crush: selection failed for pg %d", pg)
			}
			continue // retry next round with host cap relaxed when r grows
		}
		taken[best] = true
		hostCount[m.devices[best].Host]++
		chosen = append(chosen, best)
	}
	return chosen, nil
}
