package crush

import (
	"testing"
	"testing/quick"
)

func TestUniformShape(t *testing.T) {
	m := Uniform(4, 6)
	if m.Devices() != 24 {
		t.Fatalf("devices = %d", m.Devices())
	}
	if len(m.hostIdx) != 4 {
		t.Fatalf("hosts = %v", m.hostIdx)
	}
	if m.Host(0) != "node0" || m.Host(23) != "node3" {
		t.Fatal("host naming wrong")
	}
}

func TestNewMapValidation(t *testing.T) {
	if _, err := NewMap(nil); err == nil {
		t.Fatal("empty map must be rejected")
	}
	if _, err := NewMap([]Device{{ID: 1, Host: "a", Weight: 1}}); err == nil {
		t.Fatal("non-dense IDs must be rejected")
	}
	if _, err := NewMap([]Device{{ID: 0, Host: "a", Weight: -1}}); err == nil {
		t.Fatal("negative weight must be rejected")
	}
	if _, err := NewMap([]Device{{ID: 0, Host: "a", Weight: 0}}); err == nil {
		t.Fatal("all-zero weights must be rejected")
	}
}

func TestSelectDeterministic(t *testing.T) {
	m := Uniform(4, 6)
	for pg := uint64(0); pg < 50; pg++ {
		a, err := m.Select(pg, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := m.Select(pg, 3)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("pg %d selection not deterministic: %v vs %v", pg, a, b)
			}
		}
	}
}

func TestSelectDistinct(t *testing.T) {
	m := Uniform(4, 6)
	for pg := uint64(0); pg < 200; pg++ {
		for _, n := range []int{3, 9, 14} {
			sel, err := m.Select(pg, n)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int]bool{}
			for _, d := range sel {
				if seen[d] {
					t.Fatalf("pg %d n=%d: duplicate device %d in %v", pg, n, d, sel)
				}
				seen[d] = true
			}
			if len(sel) != n {
				t.Fatalf("pg %d: len=%d, want %d", pg, len(sel), n)
			}
		}
	}
}

func TestHostSpreading(t *testing.T) {
	m := Uniform(4, 6)
	// 3 replicas over 4 hosts: all on distinct hosts.
	for pg := uint64(0); pg < 200; pg++ {
		sel, _ := m.Select(pg, 3)
		hosts := map[string]bool{}
		for _, d := range sel {
			hosts[m.Host(d)] = true
		}
		if len(hosts) != 3 {
			t.Fatalf("pg %d: 3 replicas on %d hosts (%v)", pg, len(hosts), sel)
		}
	}
	// 9 shards over 4 hosts: cap is ceil(9/4)=3 per host.
	for pg := uint64(0); pg < 200; pg++ {
		sel, _ := m.Select(pg, 9)
		count := map[string]int{}
		for _, d := range sel {
			count[m.Host(d)]++
		}
		for h, c := range count {
			if c > 3 {
				t.Fatalf("pg %d: host %s has %d shards (cap 3)", pg, h, c)
			}
		}
	}
}

func TestBalance(t *testing.T) {
	// Over many PGs each of the 24 equally weighted OSDs should receive a
	// near-equal share of primaries and of total placements.
	m := Uniform(4, 6)
	const pgs = 4096
	prim := make([]int, 24)
	total := make([]int, 24)
	for pg := uint64(0); pg < pgs; pg++ {
		sel, err := m.Select(pg, 3)
		if err != nil {
			t.Fatal(err)
		}
		prim[sel[0]]++
		for _, d := range sel {
			total[d]++
		}
	}
	wantPrim := float64(pgs) / 24
	wantTotal := float64(pgs*3) / 24
	for d := 0; d < 24; d++ {
		if float64(prim[d]) < wantPrim*0.7 || float64(prim[d]) > wantPrim*1.3 {
			t.Errorf("device %d primaries = %d, want %.0f±30%%", d, prim[d], wantPrim)
		}
		if float64(total[d]) < wantTotal*0.7 || float64(total[d]) > wantTotal*1.3 {
			t.Errorf("device %d placements = %d, want %.0f±30%%", d, total[d], wantTotal)
		}
	}
}

func TestWeightBias(t *testing.T) {
	// A device with double weight should receive roughly double placements.
	devs := make([]Device, 8)
	for i := range devs {
		devs[i] = Device{ID: i, Host: "h" + string(rune('0'+i)), Weight: 1}
	}
	devs[0].Weight = 2
	m, err := NewMap(devs)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 8)
	const pgs = 8192
	for pg := uint64(0); pg < pgs; pg++ {
		sel, _ := m.Select(pg, 1)
		counts[sel[0]]++
	}
	ratio := float64(counts[0]) / (float64(pgs-counts[0]) / 7)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("weight-2 device got %.2fx the average share, want ~2x", ratio)
	}
}

func TestMarkOutExcludesDevice(t *testing.T) {
	m := Uniform(4, 6)
	m.MarkOut(5)
	if !m.out[5] {
		t.Fatal("MarkOut did not mark the device out")
	}
	for pg := uint64(0); pg < 500; pg++ {
		sel, err := m.Select(pg, 9)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range sel {
			if d == 5 {
				t.Fatalf("pg %d selected out device 5", pg)
			}
		}
	}
	m.MarkIn(5)
	found := false
	for pg := uint64(0); pg < 500 && !found; pg++ {
		sel, _ := m.Select(pg, 9)
		for _, d := range sel {
			if d == 5 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("restored device never selected")
	}
}

func TestMinimalMovementOnFailure(t *testing.T) {
	// straw2 property: marking one device out should only move placements
	// that involved that device; unrelated mappings stay unchanged.
	m := Uniform(4, 6)
	const pgs = 1024
	before := make([][]int, pgs)
	for pg := 0; pg < pgs; pg++ {
		sel, _ := m.Select(uint64(pg), 3)
		before[pg] = sel
	}
	m.MarkOut(7)
	moved, unaffected, unaffectedChanged := 0, 0, 0
	for pg := 0; pg < pgs; pg++ {
		after, err := m.Select(uint64(pg), 3)
		if err != nil {
			t.Fatal(err)
		}
		had7 := false
		for _, d := range before[pg] {
			if d == 7 {
				had7 = true
			}
		}
		same := true
		for i := range after {
			if after[i] != before[pg][i] {
				same = false
			}
		}
		if had7 {
			moved++
		} else {
			unaffected++
			if !same {
				unaffectedChanged++
			}
		}
	}
	if moved == 0 {
		t.Fatal("no PGs involved device 7?")
	}
	// Host-cap interactions may shuffle a few unrelated PGs; demand < 5%.
	if frac := float64(unaffectedChanged) / float64(unaffected); frac > 0.05 {
		t.Fatalf("%.1f%% of unaffected PGs moved, want <5%%", frac*100)
	}
}

func TestSelectErrors(t *testing.T) {
	m := Uniform(2, 2)
	if _, err := m.Select(1, 0); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := m.Select(1, 5); err == nil {
		t.Fatal("selecting more than available must error")
	}
	m.MarkOut(0)
	m.MarkOut(1)
	m.MarkOut(2)
	if _, err := m.Select(1, 2); err == nil {
		t.Fatal("selection exceeding in-devices must error")
	}
}

func TestSelectQuickProperties(t *testing.T) {
	m := Uniform(4, 6)
	f := func(pg uint64, nRaw uint8) bool {
		n := 1 + int(nRaw)%14
		sel, err := m.Select(pg, n)
		if err != nil {
			return false
		}
		if len(sel) != n {
			return false
		}
		seen := map[int]bool{}
		for _, d := range sel {
			if d < 0 || d >= 24 || seen[d] {
				return false
			}
			seen[d] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSelect3(b *testing.B) {
	m := Uniform(4, 6)
	for i := 0; i < b.N; i++ {
		if _, err := m.Select(uint64(i), 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelect14(b *testing.B) {
	m := Uniform(4, 6)
	for i := 0; i < b.N; i++ {
		if _, err := m.Select(uint64(i), 14); err != nil {
			b.Fatal(err)
		}
	}
}
