package rpcnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// Every test in this package runs with released frames overwritten, so a
// consumer that reads a message after giving its frame back decodes garbage
// (and, under -race, is reported) instead of getting away with it.
func init() { poisonFrames = true }

// lineServer serves n items laid out on a line, item i at x=(i+0.5)/1000,
// so the window [0, k/1000] selects exactly items 0..k-1.
func lineServer(t testing.TB, n int, cfg ServerConfig) (*Server, *rtree.Tree) {
	t.Helper()
	reg, err := region.New(1<<12, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		x := (float64(i) + 0.5) / 1000
		if _, err := tree.Insert(geo.Rect{MinX: x, MaxX: x, MinY: 0.5, MaxY: 0.5}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := Listen("127.0.0.1:0", tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck // returns on Close
	t.Cleanup(func() { srv.Close() })
	return srv, tree
}

func firstK(k int) geo.Rect {
	return geo.Rect{MinX: 0, MaxX: float64(k) / 1000, MinY: 0, MaxY: 1}
}

// localSearch is the reference result: the tree's own traversal order.
func localSearch(t *testing.T, tree *rtree.Tree, q geo.Rect) []wire.Item {
	t.Helper()
	var items []wire.Item
	if _, err := tree.Search(q, func(r geo.Rect, ref uint64) bool {
		items = append(items, wire.Item{Rect: r, Ref: ref})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return items
}

func localNearest(t *testing.T, tree *rtree.Tree, k int, x, y float64) []wire.Item {
	t.Helper()
	nbrs, _, err := tree.Nearest(k, x, y)
	if err != nil {
		t.Fatal(err)
	}
	return proto.ItemsOfNeighbors(nbrs)
}

// refSegments is the materialise-then-encode segmentation the pipeline
// replaced: CONT segments of max items, then END, each wire.Response.Encode.
func refSegments(id uint64, status uint8, items []wire.Item, max int) [][]byte {
	var segs [][]byte
	for {
		seg := wire.Response{ID: id, Status: status}
		if len(items) > max {
			seg.Items, items = items[:max], items[max:]
		} else {
			seg.Items, items, seg.Final = items, nil, true
		}
		segs = append(segs, seg.Encode(nil))
		if seg.Final {
			return segs
		}
	}
}

func framed(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = append(out, p...)
	}
	return out
}

// refBatchFrames is the container packing the pipeline replaced: each
// segment appended to the open container unless that would pass 16 KB.
func refBatchFrames(results [][][]byte) []byte {
	const limit = 16 << 10
	var out []byte
	var enc wire.BatchEncoder
	enc.Reset(nil)
	flush := func() {
		if enc.Count() > 0 {
			out = append(out, framed(enc.Bytes())...)
		}
		enc.Reset(nil)
	}
	for _, segs := range results {
		for _, seg := range segs {
			if enc.Count() > 0 && enc.Len()+len(seg)+wire.BatchOverhead(1) > limit {
				flush()
			}
			enc.Begin()
			enc.Buf = append(enc.Buf, seg...)
			enc.End()
		}
	}
	flush()
	return out
}

// rawConn is a bare socket past the hello: what the server writes is read
// back byte for byte, with no client in between.
func rawConn(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(conn, nil); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return conn
}

func expectBytes(t *testing.T, conn net.Conn, what string, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d reply bytes differ from the reference encoding", what, len(want))
	}
}

// TestStreamedSegmentsByteIdentical pins the wire format: for result sizes
// around every segment boundary, what the sink streams is exactly what
// encoding the materialised items produced — on the plain path, for kNN,
// and inside batch containers across the 16 KB container boundary.
func TestStreamedSegmentsByteIdentical(t *testing.T) {
	srv, tree := lineServer(t, 600, ServerConfig{}) // no heartbeats: only replies on the socket
	max := srv.cfg.MaxSegmentItems
	sizes := []int{0, 1, max - 1, max, max + 1, 5*max + 3}
	conn := rawConn(t, srv)

	for _, n := range sizes {
		id := uint64(1000 + n)
		req := wire.Request{Type: wire.MsgSearch, ID: id, Rect: firstK(n)}
		if err := writeFrame(conn, req.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		items := localSearch(t, tree, req.Rect)
		if len(items) != n {
			t.Fatalf("window selects %d items, want %d", len(items), n)
		}
		expectBytes(t, conn, fmt.Sprintf("search n=%d", n),
			framed(refSegments(id, wire.StatusOK, items, max)...))

		if n == 0 {
			continue // k must be positive
		}
		knn := wire.KNNRequest(id+1, n, 0, 0.5)
		if err := writeFrame(conn, knn.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		expectBytes(t, conn, fmt.Sprintf("knn k=%d", n),
			framed(refSegments(id+1, wire.StatusOK, localNearest(t, tree, n, 0, 0.5), max)...))
	}

	// One batch: every size, a kNN, a write ack and an operation that fails
	// (k=0) — 20 KB of results in one op, so containers split mid-operation.
	var enc wire.BatchEncoder
	enc.Reset(nil)
	var want [][][]byte
	add := func(req wire.Request, status uint8, items []wire.Item) {
		enc.Begin()
		enc.Buf = req.Encode(enc.Buf)
		enc.End()
		want = append(want, refSegments(req.ID, status, items, max))
	}
	for i, n := range sizes {
		q := firstK(n)
		add(wire.Request{Type: wire.MsgSearch, ID: uint64(i + 1), Rect: q}, wire.StatusOK, localSearch(t, tree, q))
	}
	add(wire.KNNRequest(50, 7, 0.3, 0.5), wire.StatusOK, localNearest(t, tree, 7, 0.3, 0.5))
	add(wire.KNNRequest(51, 0, 0.3, 0.5), wire.StatusError, nil)
	add(wire.Request{Type: wire.MsgDelete, ID: 52, Rect: geo.Rect{MinX: 2, MaxX: 2, MinY: 2, MaxY: 2}, Ref: 1},
		wire.StatusNotFound, nil)
	if err := writeFrame(conn, enc.Bytes()); err != nil {
		t.Fatal(err)
	}
	ref := refBatchFrames(want)
	if containers := bytes.Count(ref, []byte{byte(wire.MsgBatch)}); containers < 2 {
		t.Fatalf("reference batch reply is one container; the test must cross the 16 KB boundary")
	}
	expectBytes(t, conn, "batch", ref)
}

// TestOneSidedReadRepliesByteIdentical pins the READ replies of every space,
// which the server assembles in place (header reserved, region bytes read
// straight into the reply): each is exactly a READ_DATA message carrying
// the region's bytes, and each refusal — bad range, no mailbox, an unknown
// space, a killed server — the bare status.
func TestOneSidedReadRepliesByteIdentical(t *testing.T) {
	srv, tree := lineServer(t, 600, ServerConfig{FetchSlots: 2, FetchSlotChunks: 4})
	bare, _ := lineServer(t, 10, ServerConfig{}) // no mailbox region
	reg, mreg := tree.Region(), srv.mreg
	slot, _ := srv.mailbox.Grant()
	if _, err := srv.mailbox.WriteResult(slot, bytes.Repeat([]byte{0xAB}, 5000)); err != nil {
		t.Fatal(err)
	}
	span := func(r *region.Region, chunk, count int) []byte {
		raw := make([]byte, count*r.ChunkSize())
		for i := 0; i < count; i++ {
			if err := r.ReadChunkRaw(chunk+i, raw[i*r.ChunkSize():(i+1)*r.ChunkSize()]); err != nil {
				t.Fatal(err)
			}
		}
		return raw
	}
	versions := func(chunk, count int) []byte {
		raw := make([]byte, count*reg.VersionsSize())
		for i := 0; i < count; i++ {
			if err := reg.ReadVersions(chunk+i, raw[i*reg.VersionsSize():(i+1)*reg.VersionsSize()]); err != nil {
				t.Fatal(err)
			}
		}
		return raw
	}
	data := func(id uint64, status uint8, body []byte) []byte {
		msg, dst := wire.AppendRawReply(nil, id, status, len(body))
		copy(dst, body)
		return msg
	}
	read := func(id uint64, space wire.Space, chunk, count uint32) []byte {
		return wire.Read{ID: id, Space: space, Chunk: chunk, Count: count}.Encode(nil)
	}
	root, past := uint32(tree.RootChunk()), uint32(reg.NumChunks())
	unavailable := func(id uint64) []byte { return data(id, wire.StatusUnavailable, nil) }
	refused := func(id uint64) []byte { return data(id, wire.StatusError, nil) }
	cases := []struct {
		name string
		srv  *Server
		req  []byte
		ok   []byte // the reply while the server is up
		dead []byte // the reply once it is killed
	}{
		{"chunk", srv, read(1, wire.SpaceChunks, root, 1),
			data(1, wire.StatusOK, span(reg, int(root), 1)), unavailable(1)},
		{"chunk past the region", srv, read(2, wire.SpaceChunks, past, 1), refused(2), unavailable(2)},
		{"span", srv, read(3, wire.SpaceChunks, 1, 5),
			data(3, wire.StatusOK, span(reg, 1, 5)), unavailable(3)},
		{"span of none", srv, read(4, wire.SpaceChunks, 1, 0), refused(4), unavailable(4)},
		{"span too long", srv, read(5, wire.SpaceChunks, 1, maxSpanChunks+1), refused(5), unavailable(5)},
		{"span past the region", srv, read(6, wire.SpaceChunks, past-1, 2), refused(6), unavailable(6)},
		{"versions", srv, read(7, wire.SpaceVersions, root, 1),
			data(7, wire.StatusOK, versions(int(root), 1)), unavailable(7)},
		{"versions of a span", srv, read(8, wire.SpaceVersions, 1, 3),
			data(8, wire.StatusOK, versions(1, 3)), unavailable(8)},
		{"versions past the region", srv, read(9, wire.SpaceVersions, past, 1), refused(9), unavailable(9)},
		{"versions of none", srv, read(10, wire.SpaceVersions, root, 0), refused(10), unavailable(10)},
		{"mailbox", srv, read(11, wire.SpaceMailbox, uint32(slot*4), 2),
			data(11, wire.StatusOK, span(mreg, slot*4, 2)), unavailable(11)},
		{"mailbox past the region", srv, read(12, wire.SpaceMailbox, 7, 2), refused(12), unavailable(12)},
		{"mailbox of a server without one", bare, read(13, wire.SpaceMailbox, 0, 1), refused(13), nil},
		{"unknown space", srv, read(14, wire.NumSpaces, root, 1), refused(14), unavailable(14)},
	}
	conns := map[*Server]net.Conn{srv: rawConn(t, srv), bare: rawConn(t, bare)}
	for _, killed := range []bool{false, true} {
		for _, tc := range cases {
			want := tc.ok
			if killed {
				if want = tc.dead; want == nil {
					continue
				}
			}
			if err := writeFrame(conns[tc.srv], tc.req); err != nil {
				t.Fatal(err)
			}
			expectBytes(t, conns[tc.srv], fmt.Sprintf("%s (killed=%v)", tc.name, killed), framed(want))
		}
		srv.Kill()
	}
}

func sameItems(a, b []wire.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// viaBatch answers Search and Nearest through ExecBatch, three copies of the
// query per flight, so the batch container path serves the same checks.
type viaBatch struct{ Conn }

func (b viaBatch) exec(op BatchOp) (BatchResult, error) {
	res := b.ExecBatch([]BatchOp{op, op, op}, nil)
	for _, r := range res {
		if r.Err != nil {
			return r, r.Err
		}
		if !sameItems(r.Items, res[0].Items) {
			return r, fmt.Errorf("copies of one batched query disagree")
		}
	}
	return res[0], nil
}

func (b viaBatch) Search(q geo.Rect) ([]wire.Item, Method, error) {
	r, err := b.exec(BatchOp{Type: wire.MsgSearch, Rect: q})
	return r.Items, r.Method, err
}

func (b viaBatch) Nearest(k int, x, y float64) ([]rtree.Neighbor, Method, error) {
	r, err := b.exec(BatchOp{Type: wire.MsgKNN, Rect: geo.PointRect(x, y), Ref: uint64(k)})
	return proto.NeighborsOfItems(r.Items, x, y), r.Method, err
}

// TestPipelineMatchesLocalTree checks remote search and kNN against the
// local tree item for item — plain, batched, fetch (mailbox and inline) and
// K=2 routed — at result sizes on both sides of a segment.
func TestPipelineMatchesLocalTree(t *testing.T) {
	const n = 3000
	check := func(t *testing.T, c Conn, ref *rtree.Tree, ordered bool) {
		t.Helper()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 30; i++ {
			q := randRect(rng, []float64{0.01, 0.1, 0.4}[i%3])
			want := localSearch(t, ref, q)
			got, _, err := c.Search(q)
			if err != nil {
				t.Fatalf("search %d: %v", i, err)
			}
			if ordered && !sameItems(got, want) {
				t.Fatalf("search %d: %d items differ from the local tree's %d", i, len(got), len(want))
			}
			if !ordered && !equalRefs(sortedRefSet(got), sortedRefSet(want)) {
				t.Fatalf("search %d: %d items, want %d", i, len(got), len(want))
			}
			k := []int{1, 10, 150}[i%3]
			x, y := rng.Float64(), rng.Float64()
			wantN, _, err := ref.Nearest(k, x, y)
			if err != nil {
				t.Fatal(err)
			}
			gotN, _, err := c.Nearest(k, x, y)
			if err != nil {
				t.Fatalf("knn %d: %v", i, err)
			}
			if len(gotN) != len(wantN) {
				t.Fatalf("knn %d: %d neighbors, want %d", i, len(gotN), len(wantN))
			}
			for j := range gotN {
				if gotN[j] != wantN[j] {
					t.Fatalf("knn %d: neighbor %d = %+v, want %+v", i, j, gotN[j], wantN[j])
				}
			}
		}
	}
	for _, tc := range []struct {
		name    string
		cfg     ServerConfig
		forced  Method
		batched bool
	}{
		{"plain", ServerConfig{}, MethodFast, false},
		{"batched", ServerConfig{}, MethodFast, true},
		{"fetch", ServerConfig{FetchSlots: 4, FetchInlineMax: 20}, MethodFetch, false},
		{"fetch-batched", ServerConfig{FetchSlots: 4, FetchInlineMax: 20}, MethodFetch, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, tree := startServer(t, n, tc.cfg)
			c, err := Connect([]string{srv.Addr().String()}, WithForced(tc.forced))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			if tc.batched {
				c = viaBatch{c}
			}
			check(t, c, tree, true)
		})
	}
	t.Run("routed-2", func(t *testing.T) {
		addrs, _, _, data := startShardedDeploy(t, n, 2, 5*time.Millisecond)
		c, err := Connect(addrs, WithSeed(2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		reg, err := region.New(1<<14, 4096)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.BulkLoad(append([]rtree.Entry(nil), data...), 0); err != nil {
			t.Fatal(err)
		}
		check(t, c, ref, false)
	})
}

// TestFrameOwnershipHammer drives every consumer of pooled frames at once
// over one connection — fast scans, offloaded traversals with merged spans
// and prefetch, batches, fetch pulls — while short-lived streams detach with
// multi-segment responses still in flight. With frames poisoned on release
// (and under -race), a consumer that kept reading a frame it had returned,
// or a recycled waiter that received another call's reply, shows up as a
// wrong result here.
func TestFrameOwnershipHammer(t *testing.T) {
	srv, tree := startServer(t, 6000, ServerConfig{
		HeartbeatInterval: 2 * time.Millisecond, FetchSlots: 4, FetchInlineMax: 8,
	})
	m, err := DialMux(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	rounds := 150
	if testing.Short() {
		rounds = 40
	}
	// The tree is read-only here, so every answer is checkable and local
	// reference searches may run concurrently.
	want := func(q geo.Rect) ([]uint64, error) {
		var items []wire.Item
		_, err := tree.Search(q, func(r geo.Rect, ref uint64) bool {
			items = append(items, wire.Item{Rect: r, Ref: ref})
			return true
		})
		return sortedRefSet(items), err
	}
	verify := func(what string, q geo.Rect, items []wire.Item) error {
		w, err := want(q)
		if err != nil {
			return err
		}
		if !equalRefs(sortedRefSet(items), w) {
			return fmt.Errorf("%s: %d items, want %d", what, len(items), len(w))
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	worker := func(seed int64, cfg ClientConfig, run func(c *Client, rng *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := m.Client(cfg)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				if err := run(c, rng); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	search := func(what string) func(c *Client, rng *rand.Rand) error {
		return func(c *Client, rng *rand.Rand) error {
			q := randRect(rng, 0.3)
			items, _, err := c.Search(q)
			if err != nil {
				return fmt.Errorf("%s: %w", what, err)
			}
			return verify(what, q, items)
		}
	}
	for i := int64(0); i < 3; i++ {
		worker(10+i, ClientConfig{Forced: MethodFast}, search("fast"))
		worker(20+i, ClientConfig{Forced: MethodOffload, MultiIssue: true, MergeSpan: 8,
			Prefetch: 8, NodeCache: 32}, search("offload"))
		worker(30+i, ClientConfig{Forced: MethodFetch, Fetch: true}, search("fetch"))
		worker(40+i, ClientConfig{Forced: MethodFast}, func(c *Client, rng *rand.Rand) error {
			ops := make([]BatchOp, 5)
			for j := range ops {
				ops[j] = BatchOp{Type: wire.MsgSearch, Rect: randRect(rng, 0.3)}
			}
			for j, r := range c.ExecBatch(ops, nil) {
				if r.Err != nil {
					return fmt.Errorf("batch: %w", r.Err)
				}
				if err := verify("batch", ops[j].Rect, r.Items); err != nil {
					return err
				}
			}
			return nil
		})
	}
	var cut atomic.Int32 // scans that lost their stream mid-call
	// Detachers: start a scan of the whole space on a fresh stream and close
	// the stream while its ~60 segments are arriving. The call must fail
	// cleanly or return the complete result, never a corrupt one.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			all := geo.Rect{MaxX: 1, MaxY: 1}
			for r := 0; r < rounds/4; r++ {
				c, err := m.Client(ClientConfig{Forced: MethodFast})
				if err != nil {
					errs <- err
					return
				}
				done := make(chan error, 1)
				go func() {
					items, _, err := c.Search(all)
					if err == nil {
						err = verify("detached scan", all, items)
					} else {
						cut.Add(1)
						err = nil // ErrClosed is the expected outcome
					}
					done <- err
				}()
				// Close only once the call is registered: a call begun on a
				// closed stream is outside the contract.
				for pending := false; !pending && len(done) == 0; {
					m.mu.Lock()
					for id := range m.waiters {
						pending = pending || uint32(id>>32) == c.stream
					}
					m.mu.Unlock()
				}
				time.Sleep(time.Duration(r%5) * 50 * time.Microsecond)
				c.Close()
				if err := <-done; err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("%d scans were cut off by a detach", cut.Load())
}
