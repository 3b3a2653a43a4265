package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"ecarray/internal/service"
)

// Spans are recorded from the harness's own code around calls into each
// layer's public functions; nothing inside the program is instrumented.
// One request's spans share its request ID, which the client sets and the
// gateway carries in the context down to every shard call:
//
//	client.op ⊃ gateway.handler ⊃ store.put | store.get | store.delete

const (
	spanClient  = "client.op"
	spanHandler = "gateway.handler"
	spanCell    = "sim.cell"
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer was made. Op is "put", "get" or "delete" on service spans.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Req    string `json:"req"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	nests bool // later spans of the request nest under this one until it ends
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	nextID int64
	spans  []span
	open   map[string]int64 // request ID → ID of its innermost open client/handler span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: map[string]int64{}} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the request's current innermost span. When
// nests is set, later spans of the request nest under this one until end.
func (t *tracer) begin(req, name, op string, nests bool) span {
	s := span{Req: req, Name: name, Op: op, Start: t.now(), nests: nests}
	t.mu.Lock()
	t.nextID++
	s.ID = t.nextID
	s.Parent = t.open[req]
	if nests {
		t.open[req] = s.ID
	}
	t.mu.Unlock()
	return s
}

func (t *tracer) end(s span) {
	s.End = t.now()
	t.mu.Lock()
	if s.nests {
		if s.Parent == 0 {
			delete(t.open, s.Req)
		} else {
			t.open[s.Req] = s.Parent
		}
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a finished root span timed by the caller.
func (t *tracer) record(req, name string, start, end int64) {
	t.mu.Lock()
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// middleware records gateway.handler around the gateway's whole HTTP
// handler for object requests that carry a request ID.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(service.RequestIDHeader)
		if req == "" {
			next.ServeHTTP(w, r)
			return
		}
		s := t.begin(req, spanHandler, opOfMethod(r.Method), true)
		next.ServeHTTP(w, r)
		t.end(s)
	})
}

func opOfMethod(m string) string {
	switch m {
	case http.MethodPut:
		return "put"
	case http.MethodGet:
		return "get"
	case http.MethodDelete:
		return "delete"
	}
	return ""
}

// tracedStore records one span per shard call. It embeds the store it
// wraps, so a method the interface gains later passes through untraced
// instead of breaking the build.
type tracedStore struct {
	service.ShardStore
	tr *tracer
}

func (s tracedStore) Put(ctx context.Context, key string, shard int, data []byte) error {
	sp := s.tr.begin(service.RequestIDFrom(ctx), "store.put", "put", false)
	err := s.ShardStore.Put(ctx, key, shard, data)
	s.tr.end(sp)
	return err
}

func (s tracedStore) Get(ctx context.Context, key string, shard int) ([]byte, error) {
	sp := s.tr.begin(service.RequestIDFrom(ctx), "store.get", "get", false)
	data, err := s.ShardStore.Get(ctx, key, shard)
	s.tr.end(sp)
	return data, err
}

func (s tracedStore) Delete(ctx context.Context, key string, shard int) error {
	sp := s.tr.begin(service.RequestIDFrom(ctx), "store.delete", "delete", false)
	err := s.ShardStore.Delete(ctx, key, shard)
	s.tr.end(sp)
	return err
}

// writeFile dumps every span as JSON and returns how many there were.
func (t *tracer) writeFile(path string) (int, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return 0, err
	}
	return len(spans), os.WriteFile(path, data, 0o644)
}

// interval is a half-open time range.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by ivs, overlaps counted once.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
		} else if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// selfTime is a span's duration minus the part of it its children cover.
// Children are clipped to the parent: a shard call abandoned by a hedge can
// outlive the handler that issued it.
func selfTime(parent span, children []span) int64 {
	ivs := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	return parent.dur() - unionLen(ivs)
}

// requestBreakdown is where one request's time went, in milliseconds.
type requestBreakdown struct {
	op                string
	front, self, fan  float64
	slowestOverMedian float64 // over the shard calls of the request's own kind; 0 if none
}

// breakdowns splits every traced request with a complete span tree.
func (t *tracer) breakdowns() []requestBreakdown {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	byID := make(map[int64]span, len(spans))
	kids := map[int64][]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []requestBreakdown
	for _, h := range spans {
		if h.Name != spanHandler {
			continue
		}
		client, ok := byID[h.Parent]
		if !ok || client.Name != spanClient {
			continue
		}
		stores := kids[h.ID]
		self := selfTime(h, stores)
		b := requestBreakdown{
			op:    h.Op,
			front: float64(client.dur()-h.dur()) / 1e6,
			self:  float64(self) / 1e6,
			fan:   float64(h.dur()-self) / 1e6,
		}
		var durs []float64
		for _, s := range stores {
			if s.Op == h.Op {
				durs = append(durs, float64(s.dur()))
			}
		}
		if len(durs) > 0 {
			slowest, _ := percentile(durs, 1)
			b.slowestOverMedian = ratio(slowest, median(durs))
		}
		out = append(out, b)
	}
	return out
}
