//go:build !race

// Race instrumentation allocates on its own, so the hard allocation counts
// of the result pipeline only run in non-race builds.
package rpcnet

import (
	"testing"

	"github.com/catfish-db/catfish/internal/wire"
)

// TestServerQueryZeroAlloc: a warmed server turns a 500-result search, and a
// kNN(10), into the framed response bytes without allocating — the sink, the
// search stack and the kNN queue are all reused.
func TestServerQueryZeroAlloc(t *testing.T) {
	srv, _ := lineServer(t, 600, ServerConfig{})
	reply := func(req wire.Request) int {
		k := getSink()
		defer putSink(k)
		srv.latch.RLock()
		err := srv.query(k, req)
		srv.latch.RUnlock()
		if err != nil {
			t.Error(err)
		}
		k.out = appendSegments(k.out, req.ID, wire.StatusOK, k.items, srv.cfg.MaxSegmentItems)
		return len(k.out)
	}
	for _, tc := range []struct {
		name  string
		req   wire.Request
		items int
	}{
		{"search-500", wire.Request{Type: wire.MsgSearch, ID: 1, Rect: firstK(500)}, 500},
		{"knn-10", wire.KNNRequest(2, 10, 0.3, 0.5), 10},
	} {
		segs := len(refSegments(0, 0, make([]wire.Item, tc.items), srv.cfg.MaxSegmentItems))
		want := tc.items*wire.ItemSize + segs*(4+wire.ResponseHeaderSize)
		if got := reply(tc.req); got != want { // also warms the pools
			t.Fatalf("%s: %d reply bytes, want %d", tc.name, got, want)
		}
		if allocs := testing.AllocsPerRun(200, func() { reply(tc.req) }); allocs != 0 {
			t.Errorf("%s: server query→framed reply allocates %.1f objects/op, want 0", tc.name, allocs)
		}
	}
}

// TestStatusAckZeroAlloc: an insert/delete/MOVE ack is framed in a stack
// buffer (sendStatus's, reproduced here without the connection).
func TestStatusAckZeroAlloc(t *testing.T) {
	n := 0
	if allocs := testing.AllocsPerRun(200, func() {
		var b [4 + wire.ResponseHeaderSize]byte
		n += len(appendSegments(b[:0], 7, wire.StatusNotFound, nil, 0))
	}); allocs != 0 {
		t.Errorf("status ack allocates %.1f objects/op, want 0", allocs)
	}
	if n == 0 {
		t.Error("no ack bytes produced")
	}
}

// TestClientFoldOneAlloc: folding a 6-segment response costs exactly the
// result slice — frames, waiter and the held-segment list are all reused.
func TestClientFoldOneAlloc(t *testing.T) {
	const max = 102
	items := make([]wire.Item, 5*max+3)
	for i := range items {
		items[i].Ref = uint64(i)
	}
	segs := refSegments(9, wire.StatusOK, items, max)
	if len(segs) != 6 {
		t.Fatalf("%d segments, want 6", len(segs))
	}
	var got wire.Response
	run := func() {
		w := getWaiter()
		for _, seg := range segs {
			f := framePool.Get().(*frameBuf)
			f.b = append(f.b[:0], seg...)
			f.refs.Store(1)
			w.push(delivery{msg: f.b, f: f})
		}
		var err error
		if got, _, _, err = fold(w); err != nil {
			t.Error(err)
		}
		putWaiter(w)
	}
	run() // warm the frame and waiter pools
	if !sameItems(got.Items, items) || got.ID != 9 || !got.Final {
		t.Fatalf("fold returned %d items (id %d, final %v)", len(got.Items), got.ID, got.Final)
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 1 {
		t.Errorf("folding a 6-segment response allocates %.1f objects/op, want exactly 1 (the result)", allocs)
	}
}
