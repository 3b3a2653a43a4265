package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"ecarray/internal/service"
)

func TestUnionLenCountsOverlapOnce(t *testing.T) {
	cases := []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {5, 15}}, 15},              // overlap
		{[]interval{{0, 10}, {20, 30}}, 20},             // gap
		{[]interval{{20, 30}, {0, 10}, {2, 4}}, 20},     // unsorted, one nested
		{[]interval{{0, 10}, {10, 20}}, 20},             // touching
		{[]interval{{0, 100}, {10, 20}, {30, 40}}, 100}, // all nested in the first
	}
	for _, c := range cases {
		if got := unionLen(c.ivs); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := span{Start: 100, End: 200}
	kids := []span{
		{Start: 110, End: 150}, // six parallel shard calls look like this:
		{Start: 110, End: 160}, // they overlap, and only the union is not self time
		{Start: 170, End: 180},
		{Start: 190, End: 250}, // outlives the parent (an abandoned hedge): clipped at 200
		{Start: 300, End: 400}, // wholly outside: ignored
	}
	// union inside the parent: [110,160] + [170,180] + [190,200] = 70
	if got := selfTime(parent, kids); got != 30 {
		t.Errorf("selfTime = %d, want 30", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime with no children = %d, want 100", got)
	}
}

// memStoreOK answers every shard call; only the spans around it matter.
type memStoreOK struct{ service.ShardStore }

func (memStoreOK) Put(context.Context, string, int, []byte) error { return nil }

func TestSpanTreeLinksClientHandlerAndStoreByRequestID(t *testing.T) {
	tr := newTracer()
	store := tracedStore{ShardStore: memStoreOK{}, tr: tr}
	handler := tr.middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := service.WithRequestID(r.Context(), r.Header.Get(service.RequestIDHeader))
		for shard := 0; shard < 3; shard++ {
			if err := store.Put(ctx, "k", shard, nil); err != nil {
				t.Error(err)
			}
		}
	}))

	client := tr.begin("c0-1", spanClient, "put", true)
	req := httptest.NewRequest(http.MethodPut, "/v1/objects/k", nil)
	req.Header.Set(service.RequestIDHeader, "c0-1")
	handler.ServeHTTP(httptest.NewRecorder(), req)
	tr.end(client)

	byName := map[string][]span{}
	for _, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if len(byName[spanClient]) != 1 || len(byName[spanHandler]) != 1 || len(byName["store.put"]) != 3 {
		t.Fatalf("spans: %+v", tr.spans)
	}
	c, h := byName[spanClient][0], byName[spanHandler][0]
	if c.Parent != 0 || h.Parent != c.ID {
		t.Errorf("handler parent %d, client id %d parent %d", h.Parent, c.ID, c.Parent)
	}
	for _, s := range byName["store.put"] {
		if s.Parent != h.ID || s.Req != "c0-1" {
			t.Errorf("store span %+v is not under handler %d", s, h.ID)
		}
	}
	if len(tr.open) != 0 {
		t.Errorf("request left open: %v", tr.open)
	}
	bs := tr.breakdowns()
	if len(bs) != 1 || bs[0].op != "put" {
		t.Fatalf("breakdowns: %+v", bs)
	}
	b := bs[0]
	total := float64(c.dur()) / 1e6
	if got := b.front + b.self + b.fan; got < total*0.999 || got > total*1.001 {
		t.Errorf("front %g + self %g + fan-out %g = %g ms, client.op took %g ms", b.front, b.self, b.fan, got, total)
	}
	if b.slowestOverMedian < 1 {
		t.Errorf("slowest/median shard %g < 1", b.slowestOverMedian)
	}
}
