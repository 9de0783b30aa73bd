package rpcnet

// Run-to-completion contracts (DESIGN.md §5.12): the client's read token,
// the server's inline execution and the writer's inline writes.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// waitGoroutines fails t unless the goroutine count falls back to baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReadTokenHandoff: 64 logical clients share one connection in closed
// loops, each mixing fast searches, batches and multi-issue offloaded
// traversals, so the read token changes hands between callers waiting for
// single replies, batch collectors and read queues. Heartbeats are off: no
// idle reader exists to rescue a lost hand-off, so every call finishes
// only if the token always reaches a caller that still waits.
func TestReadTokenHandoff(t *testing.T) {
	srv, tree := startServer(t, 2000, ServerConfig{})
	m, err := DialMux(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	rng := rand.New(rand.NewSource(38))
	windows := make([]geo.Rect, 16)
	want := make([]map[uint64]int, len(windows))
	for i := range windows {
		windows[i] = randRect(rng, 0.1)
		ents, _, err := tree.SearchCollect(windows[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = map[uint64]int{}
		for _, e := range ents {
			want[i][e.Ref]++
		}
	}

	const clients = 64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cfg := ClientConfig{}
		if i%2 == 1 {
			cfg = ClientConfig{Forced: MethodOffload, MultiIssue: true, MergeSpan: 4}
		}
		c, err := m.Client(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			defer c.Close()
			errs <- func() error {
				// Staggered lengths: the last calls run with few
				// siblings left to read for them.
				for r := 0; r < 4+i%16; r++ {
					k := (i + r) % len(windows)
					items, _, err := c.Search(windows[k])
					if err != nil {
						return fmt.Errorf("client %d search: %w", i, err)
					}
					if !sameRefs(refCounts(items), want[k]) {
						return fmt.Errorf("client %d search %d: wrong items", i, k)
					}
					k2 := (k + 1) % len(windows)
					res := c.ExecBatch([]BatchOp{
						{Type: wire.MsgSearch, Rect: windows[k]},
						{Type: wire.MsgSearch, Rect: windows[k2]},
					}, nil)
					for j, kk := range []int{k, k2} {
						if res[j].Err != nil {
							return fmt.Errorf("client %d batch op %d: %w", i, j, res[j].Err)
						}
						if !sameRefs(refCounts(res[j].Items), want[kk]) {
							return fmt.Errorf("client %d batch op %d: wrong items", i, j)
						}
					}
				}
				return nil
			}()
		}(i, c)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("calls still blocked after 60 s: a read-token hand-off was lost\n%s", buf[:runtime.Stack(buf, true)])
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	self, other, idle := m.replyReads[readBySelf].Load(), m.replyReads[readByOther].Load(), m.replyReads[readByIdle].Load()
	if self == 0 || idle != 0 {
		t.Errorf("reply reads self=%d other=%d idle=%d: want self > 0 and no idle reader", self, other, idle)
	}
}

// TestIdleMuxStillReads: with nothing in flight the idle reader keeps
// applying heartbeats, and a server that goes away fails the next call with
// ErrClosed.
func TestIdleMuxStillReads(t *testing.T) {
	srv, _ := startServer(t, 100, ServerConfig{HeartbeatInterval: 2 * time.Millisecond})
	c := dial(t, srv, ClientConfig{})
	before := c.Stats().HeartbeatsSeen
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().HeartbeatsSeen < before+5 {
		if time.Now().After(deadline) {
			t.Fatalf("heartbeats seen %d → %d in 5 s with nothing in flight", before, c.Stats().HeartbeatsSeen)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, _, err := c.Search(geo.NewRect(0, 0, 0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, _, err := c.Search(geo.NewRect(0, 0, 0.5, 0.5)); !errors.Is(err, ErrClosed) {
		t.Errorf("search after the server closed: err = %v, want ErrClosed", err)
	}
}

// TestMuxCloseUnblocksReader: Mux.Close returns while a caller is blocked
// reading for a reply that never comes; the caller gets ErrClosed and no
// goroutine outlives the connection.
func TestMuxCloseUnblocksReader(t *testing.T) {
	srv, _ := startServer(t, 100, ServerConfig{})
	hello := dial(t, srv, ClientConfig{}).Hello()
	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A server that says hello, then reads requests and never answers.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if writeFrame(conn, hello.Encode(nil)) != nil {
			return
		}
		io.Copy(io.Discard, conn) //nolint:errcheck // until the client hangs up
	}()
	m, err := DialMux(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Client(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Search(geo.NewRect(0, 0, 1, 1))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the caller take the token and block
	closed := make(chan struct{})
	go func() { m.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Mux.Close still blocked 5 s after a caller started reading")
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("blocked search: err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("search still blocked 5 s after Mux.Close")
	}
	ln.Close()
	waitGoroutines(t, baseline)
}

// overlapStore counts Query calls in flight on a tree and records the most
// it ever saw at once.
type overlapStore struct {
	*rtree.Tree
	active, most atomic.Int32
}

func (s *overlapStore) Query(req wire.Request, items []byte) ([]byte, rtree.OpStats, error) {
	n := s.active.Add(1)
	for {
		most := s.most.Load()
		if n <= most || s.most.CompareAndSwap(most, n) {
			break
		}
	}
	time.Sleep(50 * time.Microsecond) // widen the window an overlap would show in
	defer s.active.Add(-1)
	return s.Tree.Query(req, items)
}

// TestInlineRespectsWorkerBound: with one dispatch worker, requests run on
// eight connection readers and on the worker never execute two at a time —
// the one running count covers both.
func TestInlineRespectsWorkerBound(t *testing.T) {
	_, tree := startServer(t, 1000, ServerConfig{})
	store := &overlapStore{Tree: tree}
	srv, err := Listen("127.0.0.1:0", store, ServerConfig{DispatchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck // returns on Close
	defer srv.Close()

	const conns, searches = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		c := dial(t, srv, ClientConfig{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < searches; j++ {
				if _, _, err := c.Search(randRect(rng, 0.05)); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if most := store.most.Load(); most != 1 {
		t.Errorf("%d queries executed at once with DispatchWorkers 1", most)
	}
	inline, queued := srv.rtc[rtcInline].Load(), srv.rtc[rtcQueued].Load()
	if inline+queued != conns*searches {
		t.Errorf("inline %d + queued %d requests, want %d", inline, queued, conns*searches)
	}
}

// TestPipelinedFrameQueues: a request with a whole further request already
// buffered behind it goes through the dispatcher, so the one behind is not
// held up by it; both are answered.
func TestPipelinedFrameQueues(t *testing.T) {
	srv, _ := lineServer(t, 100, ServerConfig{})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := bufio.NewReader(conn)
	if _, err := readFrame(in, nil); err != nil { // hello
		t.Fatal(err)
	}
	var frames []byte
	for id := uint64(1); id <= 2; id++ {
		req := wire.Request{Type: wire.MsgSearch, ID: id, Rect: firstK(5)}.Encode(nil)
		frames = binary.LittleEndian.AppendUint32(frames, uint32(len(req)))
		frames = append(frames, req...)
	}
	if _, err := conn.Write(frames); err != nil { // both in one segment
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for len(seen) < 2 {
		frame, err := readFrame(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Final {
			seen[resp.ID] = true
		}
	}
	if queued := srv.rtc[rtcQueued].Load(); queued < 1 {
		t.Errorf("%d requests queued: the one with a request buffered behind it must be", queued)
	}
	if inline, queued := srv.rtc[rtcInline].Load(), srv.rtc[rtcQueued].Load(); inline+queued != 2 {
		t.Errorf("inline %d + queued %d, want 2", inline, queued)
	}
}

// TestConnWriterOrdering: concurrent producers through enqueue,
// enqueueFramed and tryEnqueue reach the peer as intact frames, each
// producer's in the order it sent them, and the TX counter matches the bytes
// read. A paced writer never writes on the enqueuing goroutine.
func TestConnWriterOrdering(t *testing.T) {
	for _, paced := range []bool{false, true} {
		t.Run(fmt.Sprintf("paced=%v", paced), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			type got struct {
				frames map[uint16][]uint32
				bytes  uint64
				err    error
			}
			read := make(chan got, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					read <- got{err: err}
					return
				}
				defer conn.Close()
				cr := &countReader{r: conn}
				in := bufio.NewReader(cr)
				g := got{frames: map[uint16][]uint32{}}
				for {
					frame, err := readFrame(in, nil)
					if err == io.EOF {
						g.bytes = cr.n
						read <- g
						return
					}
					if err != nil {
						read <- got{err: err}
						return
					}
					p, seq, err := parseTagged(frame)
					if err != nil {
						read <- got{err: err}
						return
					}
					g.frames[p] = append(g.frames[p], seq)
				}
			}()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			conn = &jitterConn{Conn: conn}
			var tx atomic.Uint64
			var pace *txPacer
			if paced {
				pace = newTXPacer(1e10)
			}
			w := newConnWriter(conn, &tx, pace)

			const producers, perProducer = 6, 2000
			var sent [producers][]uint32
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for seq := uint32(0); seq < perProducer; seq++ {
						switch p % 3 {
						case 0:
							if w.enqueue(tagged(p, seq)) != nil {
								return
							}
						case 1: // two frames at once, pre-framed
							var b []byte
							for _, s := range []uint32{2 * seq, 2*seq + 1} {
								f := tagged(p, s)
								b = append(binary.LittleEndian.AppendUint32(b, uint32(len(f))), f...)
							}
							if w.enqueueFramed(b, nil) != nil {
								return
							}
							sent[p] = append(sent[p], 2*seq, 2*seq+1)
							continue
						case 2:
							if err := w.tryEnqueue(tagged(p, seq)); err == ErrWriterFull {
								continue // dropped, not sent
							} else if err != nil {
								return
							}
						}
						sent[p] = append(sent[p], seq)
					}
				}(p)
			}
			wg.Wait()
			inline, flushed := w.paths()
			w.close()
			conn.Close()
			g := <-read
			if g.err != nil {
				t.Fatal(g.err)
			}
			for p := 0; p < producers; p++ {
				if fmt.Sprint(g.frames[uint16(p)]) != fmt.Sprint(sent[p]) {
					t.Errorf("producer %d: %d frames arrived, %d sent, or out of order", p, len(g.frames[uint16(p)]), len(sent[p]))
				}
			}
			if g.bytes != tx.Load() {
				t.Errorf("read %d bytes, TX counter %d", g.bytes, tx.Load())
			}
			switch {
			case paced && inline != 0:
				t.Errorf("paced writer wrote %d times on the caller", inline)
			case paced && flushed == 0, !paced && inline == 0:
				t.Errorf("inline %d, flushed %d writes", inline, flushed)
			}
		})
	}
}

// jitterConn delays some writes before they reach the socket, so two
// writes left to race would reach it out of order.
type jitterConn struct {
	net.Conn
	n atomic.Uint32
}

func (c *jitterConn) Write(b []byte) (int, error) {
	if c.n.Add(1)%3 == 0 {
		time.Sleep(20 * time.Microsecond)
	}
	return c.Conn.Write(b)
}

type countReader struct {
	r io.Reader
	n uint64
}

func (c *countReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n += uint64(n)
	return n, err
}

// tagged is a frame payload naming its producer and sequence number, padded
// to a length that varies with both.
func tagged(p int, seq uint32) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(p))
	b = binary.LittleEndian.AppendUint32(b, seq)
	return append(b, make([]byte, (p*7+int(seq))%97)...)
}

func parseTagged(b []byte) (uint16, uint32, error) {
	if len(b) < 6 {
		return 0, 0, fmt.Errorf("short frame of %d bytes", len(b))
	}
	p, seq := binary.LittleEndian.Uint16(b), binary.LittleEndian.Uint32(b[2:])
	if want := len(tagged(int(p), seq)); len(b) != want {
		return 0, 0, fmt.Errorf("frame of producer %d seq %d is %d bytes, want %d", p, seq, len(b), want)
	}
	return p, seq, nil
}

// TestStageMetrics: a metered server records the queue, exec and send stage
// of every lone data request and how it ran, and a metered client how its
// replies were read.
func TestStageMetrics(t *testing.T) {
	srvReg, cliReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	srv, _ := startServer(t, 500, ServerConfig{Metrics: srvReg})
	c := dial(t, srv, ClientConfig{Metrics: cliReg})
	rng := rand.New(rand.NewSource(5))
	const searches = 20
	for i := 0; i < searches; i++ {
		if _, _, err := c.Search(randRect(rng, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Insert(randRect(rng, 0.01), 99999); err != nil {
		t.Fatal(err)
	}
	// A send stage is recorded once write(2) has returned, which the peer
	// may see before the server does: poll for the last ones.
	want := map[string]uint64{}
	for _, stage := range stageNames {
		for op, n := range map[string]uint64{"search": searches, "insert": 1} {
			want[fmt.Sprintf("catfish_stage_seconds{stage=%q,op=%q}", stage, op)] = n
		}
	}
	points := map[string]telemetry.Point{}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		for _, p := range srvReg.Snapshot() {
			points[p.Name] = p
		}
		short := false
		for name, n := range want {
			short = short || points[name].Summary.Count < n
		}
		if !short || time.Now().After(deadline) {
			break
		}
	}
	for name, n := range want {
		if got := points[name].Summary.Count; got != n {
			t.Errorf("%s: %d samples, want %d", name, got, n)
		}
	}
	inline := points[`catfish_rtc_total{path="inline"}`].Value
	queued := points[`catfish_rtc_total{path="queued"}`].Value
	if inline+queued != searches+1 || inline == 0 {
		t.Errorf("rtc inline %v + queued %v, want %d with some inline", inline, queued, searches+1)
	}
	var reads float64
	for _, p := range cliReg.Snapshot() {
		if strings.HasPrefix(p.Name, "catfish_client_reply_reads_total{") {
			reads += p.Value
		}
	}
	if reads < searches+1 {
		t.Errorf("client counted %v reply reads, want at least %d", reads, searches+1)
	}
}
