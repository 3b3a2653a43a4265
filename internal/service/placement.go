package service

import (
	"fmt"

	"ecarray/internal/crush"
)

// Placer maps object keys to ordered OSD lists through CRUSH straw2
// placement — the glue between the gateway's codec geometry and the
// cluster map. Placement is computed against the full (healthy) map and
// recorded in object metadata at PUT time: a down OSD does not move
// shards, it forces the read path to reconstruct around the hole, exactly
// like the simulated cluster's PGs.
type Placer struct {
	m     *crush.Map
	width int
}

// NewPlacer builds a placer selecting width devices per object.
func NewPlacer(m *crush.Map, width int) (*Placer, error) {
	if m == nil {
		return nil, fmt.Errorf("service: nil crush map")
	}
	if width <= 0 || width > m.Devices() {
		return nil, fmt.Errorf("service: placement width %d not in [1,%d]", width, m.Devices())
	}
	return &Placer{m: m, width: width}, nil
}

// Width returns the number of shards placed per object (k+m).
func (p *Placer) Width() int { return p.width }

// Devices returns the total device count in the map.
func (p *Placer) Devices() int { return p.m.Devices() }

// keyPG hashes an object key to its placement-group ID (FNV-1a 64).
func keyPG(key string) uint64 {
	sum := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		sum ^= uint64(key[i])
		sum *= 1099511628211
	}
	return sum
}

// Place returns the ordered OSD list for key: shard i of the object lives
// on the i-th entry. Deterministic for a given map and key.
func (p *Placer) Place(key string) ([]int, error) {
	return p.m.Select(keyPG(key), p.width)
}
