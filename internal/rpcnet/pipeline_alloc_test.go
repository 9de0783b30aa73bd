//go:build !race

// Race instrumentation allocates on its own, so the hard allocation counts
// of the result pipeline only run in non-race builds.
package rpcnet

import (
	"net"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/wire"
)

// discardConn is a peer that reads everything instantly: the server side of
// a connection whose replies nobody needs to see.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }
func (discardConn) Close() error                { return nil }

// replySizer runs requests through srv's request core on a connection of its
// own, exactly as a dispatcher worker would, and reports the framed reply
// bytes each one queued.
func replySizer(t *testing.T, srv *Server) (one func(wire.Request) int, batch func([]byte) int) {
	sc := &srvConn{c: discardConn{}, w: newConnWriter(discardConn{}, &srv.txBytes, nil)}
	t.Cleanup(sc.close)
	sized := func(serve func() error) int {
		tx := srv.txBytes.Load()
		if err := serve(); err != nil {
			t.Error(err)
		}
		return int(srv.txBytes.Load() - tx)
	}
	one = func(req wire.Request) int {
		return sized(func() error { return srv.core.Request(exec{s: srv, sc: sc, start: time.Now()}, req) })
	}
	batch = func(container []byte) int {
		return sized(func() error { return srv.core.Batch(exec{s: srv, sc: sc}, container, proto.BatchFrameLimit) })
	}
	return one, batch
}

// TestServerQueryZeroAlloc: a warmed server turns a 500-result search, a
// kNN(10) and a 16-operation read-only batch into framed response bytes in
// the connection writer without allocating — the sink (decoded sub-requests
// included), the search stack and the kNN queue are all reused, and the
// generic core reaches the server through a value, not a box.
func TestServerQueryZeroAlloc(t *testing.T) {
	srv, _ := lineServer(t, 600, ServerConfig{})
	reply, replyBatch := replySizer(t, srv)
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

	var enc wire.BatchEncoder
	enc.Reset(nil)
	items := 0
	for i := 0; i < 16; i++ {
		n := 10 * i
		req := wire.Request{Type: wire.MsgSearch, ID: uint64(100 + i), Rect: firstK(n)}
		if i%4 == 3 {
			n = i
			req = wire.KNNRequest(req.ID, n, 0.3, 0.5)
		}
		items += n
		enc.Begin()
		enc.Buf = req.Encode(enc.Buf)
		enc.End()
	}
	container := enc.Bytes()
	// Byte identity is TestStreamedSegmentsByteIdentical's job; here the
	// reply only has to be all there.
	if got, least := replyBatch(container), items*wire.ItemSize+16*wire.ResponseHeaderSize; got < least {
		t.Fatalf("batch: %d reply bytes, want at least %d", got, least)
	}
	if allocs := testing.AllocsPerRun(200, func() { replyBatch(container) }); allocs != 0 {
		t.Errorf("16-op read-only batch→framed reply allocates %.1f objects/op, want 0", allocs)
	}
}

// TestStatusAckZeroAlloc: an insert/delete/MOVE ack — here a delete that
// finds nothing — is framed in the pooled sink and queued without allocating.
func TestStatusAckZeroAlloc(t *testing.T) {
	srv, _ := lineServer(t, 10, ServerConfig{})
	reply, _ := replySizer(t, srv)
	miss := wire.Request{Type: wire.MsgDelete, ID: 7, Rect: firstK(1), Ref: 999}
	if got := reply(miss); got != 4+wire.ResponseHeaderSize {
		t.Fatalf("ack is %d bytes, want %d", got, 4+wire.ResponseHeaderSize)
	}
	if allocs := testing.AllocsPerRun(200, func() { reply(miss) }); allocs != 0 {
		t.Errorf("status ack allocates %.1f objects/op, want 0", allocs)
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
			w.push(delivery{msg: f.b, f: f}, true)
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

// TestFastSearchOverTCPOneAlloc: a warm fast-messaging search over loopback
// — the server's reader running it to completion and writing the reply, the
// caller reading its own — allocates exactly its result in the whole
// process when the server is unmetered: stage stamps cost nothing then.
func TestFastSearchOverTCPOneAlloc(t *testing.T) {
	srv, _ := lineServer(t, 100, ServerConfig{})
	c := dial(t, srv, ClientConfig{})
	search := func() {
		if items, _, err := c.Search(firstK(5)); err != nil || len(items) != 5 {
			t.Fatalf("%d items, err %v", len(items), err)
		}
	}
	for i := 0; i < 64; i++ {
		search() // warm every pool
	}
	if allocs := testing.AllocsPerRun(512, search); allocs != 1 {
		t.Errorf("fast search over TCP allocates %.2f objects/op, want exactly 1 (the result)", allocs)
	}
	if inline := srv.rtc[rtcInline].Load(); inline == 0 {
		t.Error("no search ran to completion on its reader")
	}
}
