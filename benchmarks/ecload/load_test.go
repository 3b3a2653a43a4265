package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// fakeClock only moves when the scheduler sleeps or an op "takes" time.
type fakeClock struct{ now time.Duration }

func (f *fakeClock) Now() time.Duration { return f.now }
func (f *fakeClock) SleepUntil(t time.Duration) {
	if t > f.now {
		f.now = t
	}
}

const ms = time.Millisecond

func TestOpenLoopChargesAStallToTheOpsBehindIt(t *testing.T) {
	clk := &fakeClock{}
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms}
	service := []time.Duration{1 * ms, 25 * ms, 1 * ms, 1 * ms} // op 1 stalls
	var started []time.Duration
	lat, late, backlog := runSchedule(clk, due, func(i int) {
		started = append(started, clk.now)
		clk.now += service[i]
	})
	// op 1 is sent on time and holds the connection until t=35; op 2 (due
	// 20) and op 3 (due 30) wait behind it and are timed from their due time.
	if want := []time.Duration{0, 10 * ms, 35 * ms, 36 * ms}; !reflect.DeepEqual(started, want) {
		t.Errorf("started %v, want %v", started, want)
	}
	if want := []time.Duration{1 * ms, 25 * ms, 16 * ms, 7 * ms}; !reflect.DeepEqual(lat, want) {
		t.Errorf("latency from due time %v, want %v", lat, want)
	}
	if want := []time.Duration{0, 0, 15 * ms, 6 * ms}; !reflect.DeepEqual(late, want) {
		t.Errorf("lateness %v, want %v", late, want)
	}
	if backlog != 2 { // at t=35, ops 2 and 3 are both due and unsent
		t.Errorf("backlogMax %d, want 2", backlog)
	}
}

func TestOpenLoopKeepsUpWhenServiceIsFast(t *testing.T) {
	clk := &fakeClock{}
	due := []time.Duration{5 * ms, 10 * ms, 15 * ms}
	lat, late, backlog := runSchedule(clk, due, func(int) { clk.now += ms })
	for i := range due {
		if lat[i] != ms || late[i] != 0 {
			t.Errorf("op %d: latency %v late %v, want 1ms and 0", i, lat[i], late[i])
		}
	}
	if backlog != 1 { // only ever the op being sent
		t.Errorf("backlogMax %d, want 1", backlog)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	gen := func(seed int64) ([]op, []time.Duration, [][]op) {
		rng := rand.New(rand.NewSource(seed))
		return mixedOps(rng, 100, 50, 0.7), poissonDue(rng, 50, 150), ringOps(rng, 10, 7, opPut)
	}
	a1, d1, r1 := gen(7)
	a2, d2, r2 := gen(7)
	b1, _, _ := gen(8)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(r1, r2) {
		t.Error("the same seed generated different inputs")
	}
	if reflect.DeepEqual(a1, b1) {
		t.Error("different seeds generated the same op mix")
	}
	for c, ops := range r1 {
		for _, o := range ops {
			if o.key%numClients != c {
				t.Errorf("client %d was given key %d, which belongs to client %d", c, o.key, o.key%numClients)
			}
		}
	}
	for i := 1; i < len(d1); i++ {
		if d1[i] < d1[i-1] {
			t.Fatal("arrival times are not in order")
		}
	}
}

func TestKeysetPayloadsAreStampedPerOp(t *testing.T) {
	ks := newKeyset("t", 4, 8<<10, 3)
	p1, off1 := ks.nextPayload(0)
	p2, off2 := ks.nextPayload(0)
	p3, off3 := ks.nextPayload(1)
	if off1 == off2 || off1 == off3 || off2 == off3 {
		t.Errorf("payload windows collide: %d %d %d", off1, off2, off3)
	}
	if len(p1) != 8<<10 || len(p2) != len(p1) || len(p3) != len(p1) {
		t.Error("payload has the wrong size")
	}
	ks.last[0] = off2
	if &ks.expected(0)[0] != &p2[0] {
		t.Error("expected bytes are not the last acknowledged payload")
	}
	again := newKeyset("t", 4, 8<<10, 3)
	if _, off := again.nextPayload(0); off != off1 {
		t.Error("the same seed stamped the first PUT differently")
	}
}
