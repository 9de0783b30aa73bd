package rpcnet

import (
	"errors"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/wire"
)

func refCounts(items []wire.Item) map[uint64]int {
	m := map[uint64]int{}
	for _, it := range items {
		m[it.Ref]++
	}
	return m
}

func sameRefs(a, b map[uint64]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestExecBatchOverTCP(t *testing.T) {
	srv, tree := startServer(t, 2000, ServerConfig{})
	c := dial(t, srv, ClientConfig{})
	rng := rand.New(rand.NewSource(31))

	var ops []BatchOp
	var want []map[uint64]int
	for i := 0; i < 6; i++ {
		q := randRect(rng, rng.Float64()*0.2)
		ents, _, err := tree.SearchCollect(q)
		if err != nil {
			t.Fatal(err)
		}
		w := map[uint64]int{}
		for _, e := range ents {
			w[e.Ref]++
		}
		ops = append(ops, BatchOp{Type: wire.MsgSearch, Rect: q})
		want = append(want, w)
	}
	target := geo.NewRect(0.81, 0.81, 0.82, 0.82)
	ops = append(ops,
		BatchOp{Type: wire.MsgInsert, Rect: target, Ref: 555555},
		BatchOp{Type: wire.MsgSearch, Rect: target},
		BatchOp{Type: wire.MsgDelete, Rect: target, Ref: 666666}) // absent ref

	results := c.ExecBatch(ops, nil)
	for i := 0; i < 6; i++ {
		if results[i].Err != nil {
			t.Fatalf("search %d: %v", i, results[i].Err)
		}
		if !sameRefs(refCounts(results[i].Items), want[i]) {
			t.Errorf("search %d mismatch", i)
		}
	}
	if results[6].Err != nil {
		t.Errorf("insert: %v", results[6].Err)
	}
	if got := refCounts(results[7].Items); got[555555] != 1 {
		t.Errorf("same-batch search missed the insert: %v (err %v)", got, results[7].Err)
	}
	if !errors.Is(results[8].Err, proto.ErrNotFound) {
		t.Errorf("delete of absent ref: %v, want proto.ErrNotFound", results[8].Err)
	}

	st := srv.Stats()
	if st.Batches != 1 || st.BatchedOps != 9 {
		t.Errorf("server batch stats = %d/%d, want 1/9", st.Batches, st.BatchedOps)
	}
	cst := c.Stats()
	if cst.BatchesSent != 1 || cst.BatchedOps != 9 {
		t.Errorf("client batch stats = %d/%d, want 1/9", cst.BatchesSent, cst.BatchedOps)
	}

	// A batch of one delegates to the unbatched path: no container.
	one := c.ExecBatch(ops[:1], nil)
	if one[0].Err != nil {
		t.Errorf("single-op batch: %v", one[0].Err)
	}
	if !sameRefs(refCounts(one[0].Items), want[0]) {
		t.Error("single-op batch result mismatch")
	}
	if c.Stats().BatchesSent != 1 {
		t.Errorf("single-op batch shipped a container (sent=%d)", c.Stats().BatchesSent)
	}
}

func TestExecBatchMixedOffloadOverTCP(t *testing.T) {
	// Forced offloading: batched searches traverse with chunk reads while
	// the write travels in the container — concurrently, without
	// deadlocking the shared read loop.
	srv, tree := startServer(t, 2000, ServerConfig{})
	c := dial(t, srv, ClientConfig{Forced: MethodOffload, MultiIssue: true})
	rng := rand.New(rand.NewSource(32))

	var ops []BatchOp
	var want []map[uint64]int
	for i := 0; i < 4; i++ {
		q := randRect(rng, 0.1)
		ents, _, err := tree.SearchCollect(q)
		if err != nil {
			t.Fatal(err)
		}
		w := map[uint64]int{}
		for _, e := range ents {
			w[e.Ref]++
		}
		ops = append(ops, BatchOp{Type: wire.MsgSearch, Rect: q})
		want = append(want, w)
	}
	ops = append(ops, BatchOp{Type: wire.MsgInsert, Rect: randRect(rng, 0.01), Ref: 777777})

	results := c.ExecBatch(ops, nil)
	for i := 0; i < 4; i++ {
		if results[i].Err != nil || results[i].Method != MethodOffload {
			t.Errorf("search %d: method=%v err=%v", i, results[i].Method, results[i].Err)
		}
		if !sameRefs(refCounts(results[i].Items), want[i]) {
			t.Errorf("search %d mismatch", i)
		}
	}
	if results[4].Err != nil || results[4].Method != MethodFast {
		t.Errorf("insert: method=%v err=%v (writes must use messaging)",
			results[4].Method, results[4].Err)
	}
	if srv.Stats().Inserts != 1 {
		t.Errorf("server inserts = %d, want 1", srv.Stats().Inserts)
	}
	if c.Stats().OffloadSearches != 4 {
		t.Errorf("offload searches = %d, want 4", c.Stats().OffloadSearches)
	}
}

func TestExecBatchLargeResponses(t *testing.T) {
	// Whole-space queries force segmented responses nested in containers
	// larger than one flush budget.
	srv, _ := startServer(t, 3000, ServerConfig{})
	c := dial(t, srv, ClientConfig{})
	all := geo.NewRect(0, 0, 1, 1)
	ops := []BatchOp{
		{Type: wire.MsgSearch, Rect: all},
		{Type: wire.MsgSearch, Rect: all},
	}
	results := c.ExecBatch(ops, nil)
	for i, res := range results {
		if res.Err != nil {
			t.Errorf("op %d: %v", i, res.Err)
		}
		if len(res.Items) != 3000 {
			t.Errorf("op %d: %d items, want 3000", i, len(res.Items))
		}
	}
}

// TestExecBatchUndecodableReply answers a 3-op batch from a raw-socket fake
// server with one sub-response whose item count overruns its frame. The
// batch must return — that op carrying the decode error, the other two
// their results — instead of waiting forever for an END the collector
// skipped, and leave no goroutine behind.
func TestExecBatchUndecodableReply(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			if err := writeFrame(conn, wire.Hello{ChunkSize: 4096, MaxEntries: 16, NumChunks: 1}.Encode(nil)); err != nil {
				return err
			}
			frame, err := readFrame(conn, nil)
			if err != nil {
				return err
			}
			it, err := wire.DecodeBatch(frame)
			if err != nil {
				return err
			}
			item := wire.Item{Rect: geo.NewRect(0.1, 0.1, 0.2, 0.2), Ref: 7}
			var enc wire.BatchEncoder
			enc.Reset(nil)
			for i := 0; ; i++ {
				msg, ok := it.Next()
				if !ok {
					break
				}
				req, err := wire.DecodeRequest(msg)
				if err != nil {
					return err
				}
				enc.Begin()
				count := 1
				if i == 1 {
					count = 5 // announces five items, carries one
				}
				enc.Buf = wire.AppendResponseHeader(enc.Buf, req.ID, true, wire.StatusOK, count)
				enc.Buf = wire.AppendItem(enc.Buf, item.Rect, item.Ref)
				enc.End()
			}
			if err := writeFrame(conn, enc.Bytes()); err != nil {
				return err
			}
			if _, err := readFrame(conn, nil); err == nil { // hold the connection until the client hangs up
				return errors.New("unexpected frame after the batch")
			}
			return nil
		}()
	}()

	c, err := dialClient(ln.Addr().String(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	q := geo.NewRect(0, 0, 1, 1)
	done := make(chan []BatchResult, 1)
	go func() {
		done <- c.ExecBatch([]BatchOp{{Type: wire.MsgSearch, Rect: q}, {Type: wire.MsgSearch, Rect: q}, {Type: wire.MsgSearch, Rect: q}}, nil)
	}()
	select {
	case results := <-done:
		for i, res := range results {
			if i == 1 {
				if !errors.Is(res.Err, wire.ErrCorrupt) {
					t.Errorf("op 1: err = %v, want the decode error", res.Err)
				}
				continue
			}
			if res.Err != nil || len(res.Items) != 1 || res.Items[0].Ref != 7 {
				t.Errorf("op %d: items %v, err %v; want the one item", i, res.Items, res.Err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Error("ExecBatch still blocked 5 s after an undecodable sub-response")
	}
	c.Close()
	if err := <-srvErr; err != nil {
		t.Errorf("fake server: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
