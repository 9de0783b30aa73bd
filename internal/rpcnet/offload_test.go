package rpcnet

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/wire"
)

// TestLeaseSyncOnTraversal: a heartbeat carrying a new root version only
// records it; the caches are demoted by the next traversal, on the caller's
// goroutine — the search after the bump revalidates every cached node it
// touches with a version read instead of trusting it.
func TestLeaseSyncOnTraversal(t *testing.T) {
	// A one-second lease with the server's own heartbeats paused: nothing
	// expires on the clock during the test and no real heartbeat arrives, so
	// only the root-version rule is in play.
	srv, _ := startServer(t, 5000, ServerConfig{HeartbeatInterval: time.Second})
	srv.PauseHeartbeats(true)
	c := dial(t, srv, ClientConfig{Forced: MethodOffload, MultiIssue: true, NodeCache: 128})
	q := geo.NewRect(0.4, 0.4, 0.45, 0.45)
	for i := 0; i < 2; i++ {
		if _, _, err := c.Search(q); err != nil {
			t.Fatal(err)
		}
	}
	warm := c.Stats()
	if warm.CacheHits == 0 || warm.CacheVerifiedHits != 0 {
		t.Fatalf("warm-up: %d lease-fresh hits, %d verified — want some and none", warm.CacheHits, warm.CacheVerifiedHits)
	}
	c.noteHeartbeat(wire.Heartbeat{Util: 0.1, RootVer: c.rootVer.Load() + 2})
	if _, _, err := c.Search(q); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.CacheVerifiedHits == 0 || after.VersionReads == 0 {
		t.Errorf("search after a root-version bump revalidated nothing: %d verified hits, %d version reads",
			after.CacheVerifiedHits, after.VersionReads)
	}
	if after.CacheHits != warm.CacheHits {
		t.Errorf("search after a root-version bump trusted %d cached nodes without revalidating", after.CacheHits-warm.CacheHits)
	}
}

// sabotage is what the fake tree server does to the first READ of more than
// one chunk it sees.
type sabotage int

const (
	hangUp    sabotage = iota // close the connection with the rest of the wave unanswered
	shortSpan                 // answer with one chunk too few, status OK
	wrongType                 // answer under the read's id with a reply that is not READ_DATA
)

// serveTreeBadly is a raw-socket server that answers chunk READs out of reg
// faithfully until the first one of more than one chunk, which it sabotages.
func serveTreeBadly(conn net.Conn, reg *region.Region, hello wire.Hello, how sabotage) error {
	defer conn.Close()
	if err := writeFrame(conn, hello.Encode(nil)); err != nil {
		return err
	}
	span := func(id uint64, chunk, count int) []byte {
		msg, raw := wire.AppendRawReply(nil, id, wire.StatusOK, count*reg.ChunkSize())
		for i := 0; i < count; i++ {
			if err := reg.ReadChunkRaw(chunk+i, raw[i*reg.ChunkSize():(i+1)*reg.ChunkSize()]); err != nil {
				msg, _ = wire.AppendRawReply(nil, id, wire.StatusError, 0)
				return msg
			}
		}
		return msg
	}
	sabotaged := false
	for {
		frame, err := readFrame(conn, nil)
		if err != nil {
			return nil // the client hung up
		}
		req, err := wire.DecodeRead(frame)
		if err != nil || req.Space != wire.SpaceChunks {
			return errors.New("fake tree server: unexpected request")
		}
		reply := span(req.ID, int(req.Chunk), int(req.Count))
		if req.Count > 1 && !sabotaged {
			sabotaged = true
			switch how {
			case hangUp:
				return nil
			case shortSpan:
				reply = span(req.ID, int(req.Chunk), int(req.Count)-1)
			case wrongType:
				reply[0] = byte(wire.MsgResponse)
			}
		}
		if err := writeFrame(conn, reply); err != nil {
			return err
		}
	}
}

// TestOffloadReadFailures: a traversal whose wave meets a dying or lying
// server ends with a typed error instead of hanging in its drain — ErrClosed
// when the connection goes away mid-wave, ErrServer for a span reply that is
// short or of the wrong type (after which the connection still serves) —
// and leaves no request id registered, no waiter held and no goroutine.
func TestOffloadReadFailures(t *testing.T) {
	srv, tree := startServer(t, 2000, ServerConfig{})
	reg := tree.Region()
	hello := dial(t, srv, ClientConfig{}).Hello() // the geometry of a real server over the same tree
	for name, tc := range map[string]struct {
		how  sabotage
		want error
	}{
		"hang-up":    {hangUp, ErrClosed},
		"short-span": {shortSpan, ErrServer},
		"wrong-type": {wrongType, ErrServer},
	} {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			srvErr := make(chan error, 1)
			go func() {
				conn, err := ln.Accept()
				if err == nil {
					err = serveTreeBadly(conn, reg, hello, tc.how)
				}
				srvErr <- err
			}()
			c, err := dialClient(ln.Addr().String(), ClientConfig{Forced: MethodOffload, MultiIssue: true, MergeSpan: 8})
			if err != nil {
				t.Fatal(err)
			}
			whole := geo.NewRect(0, 0, 1, 1)
			type result struct {
				items []wire.Item
				err   error
			}
			done := make(chan result, 1)
			go func() {
				items, _, err := c.Search(whole)
				done <- result{items, err}
			}()
			select {
			case res := <-done:
				if !errors.Is(res.err, tc.want) {
					t.Errorf("search: err = %v, want %v", res.err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("search still blocked 5 s after the server misbehaved")
			}
			c.mx.mu.Lock()
			registered := len(c.mx.waiters)
			c.mx.mu.Unlock()
			if registered != 0 || c.reads.w != nil || len(c.reads.pend) != 0 || c.reads.cur.f != nil {
				t.Errorf("after the failed search: %d ids registered, waiter held %v, %d requests pending, frame held %v",
					registered, c.reads.w != nil, len(c.reads.pend), c.reads.cur.f != nil)
			}
			if tc.want == ErrServer {
				// Only that one reply was bad: the drain consumed the rest of
				// the wave and the connection is as good as new.
				want, _, err := tree.SearchCollect(whole)
				if err != nil {
					t.Fatal(err)
				}
				if items, _, err := c.Search(whole); err != nil || len(items) != len(want) {
					t.Errorf("search after the bad reply: %d items, err %v; want %d", len(items), err, len(want))
				}
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
		})
	}
}
