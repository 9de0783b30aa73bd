package rpcnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// TestMuxSharedConnection runs many logical clients over one TCP
// connection and checks every stream's answers against the tree.
func TestMuxSharedConnection(t *testing.T) {
	srv, tree := startServer(t, 500, ServerConfig{})
	m, err := DialMux(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const clients = 16
	const opsPer = 30
	// The local reference tree is not safe for concurrent searches, so
	// expected answers are computed up front, before the fan-out.
	type probe struct {
		q    geo.Rect
		want int
	}
	plans := make([][]probe, clients)
	for i := range plans {
		rng := rand.New(rand.NewSource(int64(i + 100)))
		plans[i] = make([]probe, opsPer)
		for j := range plans[i] {
			q := randRect(rng, 0.05)
			want, _, err := tree.SearchCollect(q)
			if err != nil {
				t.Fatal(err)
			}
			plans[i][j] = probe{q: q, want: len(want)}
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		c, err := m.Client(ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Client, plan []probe) {
			defer wg.Done()
			for _, p := range plan {
				items, _, err := c.Search(p.q)
				if err != nil {
					errc <- err
					return
				}
				if len(items) != p.want {
					errc <- fmt.Errorf("stream got %d items, want %d", len(items), p.want)
					return
				}
			}
		}(c, plans[i])
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := m.Streams(); got != clients {
		t.Errorf("Streams() = %d, want %d", got, clients)
	}
}

// TestStreamIDExhaustion caps the stream space at 4, checks the 5th
// attach fails typed, and that closing a client returns its id for reuse.
func TestStreamIDExhaustion(t *testing.T) {
	srv, _ := startServer(t, 50, ServerConfig{})
	m, err := DialMux(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.maxStreams = 4

	cs := make([]*Client, 4)
	for i := range cs {
		if cs[i], err = m.Client(ClientConfig{}); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if _, err := m.Client(ClientConfig{}); !errors.Is(err, ErrStreamsExhausted) {
		t.Fatalf("5th client: err = %v, want ErrStreamsExhausted", err)
	}
	freed := cs[1].stream
	cs[1].Close()
	c, err := m.Client(ClientConfig{})
	if err != nil {
		t.Fatalf("attach after close: %v", err)
	}
	if c.stream != freed {
		t.Errorf("reused stream id %d, want freed id %d", c.stream, freed)
	}
	if _, _, err := c.Search(geo.NewRect(0, 0, 0.2, 0.2)); err != nil {
		t.Errorf("search on reused stream: %v", err)
	}
	// The reused id resumes its previous owner's sequence: a reply still
	// in flight to the old owner can never carry one of the new owner's
	// request ids.
	last := c.nextID()
	c.Close()
	c2, err := m.Client(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if next := c2.nextID(); c2.stream != freed || next != last+1 {
		t.Errorf("next owner of stream %d issued id %#x after %#x, want the sequence resumed", freed, next, last)
	}
}

// TestStreamSeqWraparound presets a stream's sequence counter to the top
// of the 32-bit space and drives operations across the wrap: request ids
// stay unique per in-flight window because the stream id occupies the
// high bits, so the wrap must be invisible.
func TestStreamSeqWraparound(t *testing.T) {
	srv, tree := startServer(t, 200, ServerConfig{})
	c := dial(t, srv, ClientConfig{})
	c.seq.Store(^uint32(0) - 3) // 4 ops before wrap, then seq 0, 1, ...

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		q := randRect(rng, 0.05)
		want, _, err := tree.SearchCollect(q)
		if err != nil {
			t.Fatal(err)
		}
		items, _, err := c.Search(q)
		if err != nil {
			t.Fatalf("op %d (seq %d): %v", i, c.seq.Load(), err)
		}
		if len(items) != len(want) {
			t.Fatalf("op %d: got %d items, want %d", i, len(items), len(want))
		}
	}
	if got := c.seq.Load(); got >= ^uint32(0)-3 {
		t.Fatalf("sequence did not wrap: %d", got)
	}
}

// TestMuxInterleavedBatchedUnbatched interleaves ExecBatch traffic and
// unbatched operations from two streams of one shared connection, then
// verifies reads stayed exact and every write landed.
func TestMuxInterleavedBatchedUnbatched(t *testing.T) {
	srv, tree := startServer(t, 300, ServerConfig{})
	m, err := DialMux(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cb, err := m.Client(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cu, err := m.Client(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Reads query the lower-left quadrant; writes land as points in a
	// far corner cell no query touches, so reads verify against the
	// static tree while writes race on the same wire.
	queryArea := geo.NewRect(0, 0, 0.5, 0.5)
	writeCell := func(i int) geo.Rect {
		x := 0.9 + float64(i%100)*1e-4
		y := 0.9 + float64(i/100)*1e-4
		return geo.NewRect(x, y, x+1e-5, y+1e-5)
	}
	const perSide = 120
	// Reference answers are computed before any traffic: the server's
	// dispatcher searches this same tree, and the local read path is not
	// concurrency-safe against it.
	type probe struct {
		q    geo.Rect
		want int
	}
	uRng := rand.New(rand.NewSource(22))
	var uPlan []probe
	for i := 0; i < perSide; i++ {
		if i%3 == 0 {
			uPlan = append(uPlan, probe{}) // placeholder: insert slot
			continue
		}
		q := randRectIn(uRng, queryArea, 0.05)
		want, _, err := tree.SearchCollect(q)
		if err != nil {
			t.Fatal(err)
		}
		uPlan = append(uPlan, probe{q: q, want: len(want)})
	}

	var wg sync.WaitGroup
	errc := make(chan error, 2)
	wg.Add(2)
	go func() { // batched: mixed search + insert containers
		defer wg.Done()
		rng := rand.New(rand.NewSource(21))
		var results []BatchResult
		for i := 0; i < perSide; i += 4 {
			ops := []BatchOp{
				{Type: wire.MsgSearch, Rect: randRectIn(rng, queryArea, 0.05)},
				{Type: wire.MsgInsert, Rect: writeCell(i), Ref: uint64(1<<20 + i)},
				{Type: wire.MsgInsert, Rect: writeCell(i + 1), Ref: uint64(1<<20 + i + 1)},
				{Type: wire.MsgSearch, Rect: randRectIn(rng, queryArea, 0.05)},
			}
			results = cb.ExecBatch(ops, results)
			for j, r := range results {
				if r.Err != nil {
					errc <- fmt.Errorf("batch op %d: %w", j, r.Err)
					return
				}
			}
			ops[2], ops[3] = ops[3], ops[2] // also cover insert-last layout
		}
	}()
	go func() { // unbatched on the sibling stream
		defer wg.Done()
		for i := 0; i < perSide; i++ {
			if i%3 == 0 {
				if err := cu.Insert(writeCell(512+i), uint64(1<<21+i)); err != nil {
					errc <- err
					return
				}
				continue
			}
			items, _, err := cu.Search(uPlan[i].q)
			if err != nil {
				errc <- err
				return
			}
			if len(items) != uPlan[i].want {
				errc <- fmt.Errorf("unbatched got %d items, want %d", len(items), uPlan[i].want)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Every interleaved write must be present exactly once.
	items, _, err := cu.Search(geo.NewRect(0.9, 0.9, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for _, it := range items {
		seen[it.Ref]++
	}
	for i := 0; i < perSide; i += 4 {
		for _, ref := range []uint64{uint64(1<<20 + i), uint64(1<<20 + i + 1)} {
			if seen[ref] != 1 {
				t.Errorf("batched insert ref %d seen %d times", ref, seen[ref])
			}
		}
	}
	for i := 0; i < perSide; i += 3 {
		if ref := uint64(1<<21 + i); seen[ref] != 1 {
			t.Errorf("unbatched insert ref %d seen %d times", ref, seen[ref])
		}
	}
}

// randRectIn draws a query rectangle inside area with the given max edge.
func randRectIn(rng *rand.Rand, area geo.Rect, maxEdge float64) geo.Rect {
	w := rng.Float64() * maxEdge
	h := rng.Float64() * maxEdge
	x := area.MinX + rng.Float64()*(area.MaxX-area.MinX-w)
	y := area.MinY + rng.Float64()*(area.MaxY-area.MinY-h)
	return geo.NewRect(x, y, x+w, y+h)
}

// TestSlowReaderNoHOL parks hundreds of responses on one stream whose
// reader never consumes them and asserts a sibling stream's latency on
// the same connection stays bounded: readLoop delivery must never block
// on a slow stream (per-stream queues, no head-of-line blocking).
func TestSlowReaderNoHOL(t *testing.T) {
	srv, _ := startServer(t, 500, ServerConfig{})
	m, err := DialMux(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	slow, err := m.Client(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := m.Client(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// The slow stream: fire 256 searches whose responses land in a
	// waiter nobody drains. A blocking readLoop would stall here.
	const parked = 256
	w := getWaiter()
	ids := make([]uint64, parked)
	for i := range ids {
		ids[i] = slow.nextID()
	}
	if err := m.registerAll(ids, w); err != nil {
		t.Fatal(err)
	}
	q := geo.NewRect(0.2, 0.2, 0.4, 0.4)
	for _, id := range ids {
		if err := m.send(wire.Request{Type: wire.MsgSearch, ID: id, Rect: q}.Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}

	// The fast stream must keep answering with ordinary latency while
	// the slow stream's backlog accumulates. The bound is deliberately
	// loose for CI noise — a blocked readLoop fails by timeout, not by
	// a few milliseconds.
	var worst time.Duration
	for i := 0; i < 100; i++ {
		start := time.Now()
		if _, _, err := fast.Search(q); err != nil {
			t.Fatalf("fast stream op %d: %v", i, err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	if worst > 2*time.Second {
		t.Fatalf("fast stream worst latency %v with a slow sibling stream", worst)
	}

	// The parked responses really were delivered and never consumed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		n := len(w.queue)
		w.mu.Unlock()
		if n == parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow stream holds %d undrained responses, want %d", n, parked)
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.unregisterAll(ids)
}

// TestShutdownConcurrentDials hammers Close against racing Accepts: the
// drain must reap every connection goroutine, including ones accepted in
// the shutdown window. Run with -race; the goroutine count check catches
// the leak the registration-before-spawn ordering fixed.
func TestShutdownConcurrentDials(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 8; round++ {
		reg, err := region.New(1<<12, 4096)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Listen("127.0.0.1:0", tree, ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve() //nolint:errcheck // returns on Close
		addr := srv.Addr().String()

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					c, err := dialClient(addr, ClientConfig{})
					if err != nil {
						return // server gone
					}
					c.Search(geo.NewRect(0, 0, 0.1, 0.1)) //nolint:errcheck // racing Close
					c.Close()
				}
			}()
		}
		time.Sleep(time.Duration(2+round) * time.Millisecond)
		if err := srv.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		close(stop)
		wg.Wait()
	}

	// Every serveConn/dispatcher/heartbeat goroutine must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMuxDialNoHello: a peer that accepts and never writes — a connection
// the kernel completed while a server's listener was closing looks the same
// to the dialer — fails DialMux with ErrNoHello once helloTimeout has
// passed, not at TCP keep-alive, and leaves no goroutine behind.
func TestMuxDialNoHello(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
		close(accepted)
	}()
	start := time.Now()
	m, err := DialMux(ln.Addr().String())
	took := time.Since(start)
	if err == nil {
		m.Close()
		t.Fatal("DialMux succeeded against a peer that sends no hello")
	}
	if !errors.Is(err, ErrNoHello) {
		t.Errorf("err = %v, want ErrNoHello", err)
	}
	if took < helloTimeout || took > helloTimeout+time.Second {
		t.Errorf("DialMux gave up after %v, want just past %v", took, helloTimeout)
	}
	ln.Close()
	for c := range accepted {
		c.Close()
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestAdmissionShedsTyped arms admission control at a threshold any load
// exceeds, saturates a tiny dispatch queue with microsecond deadlines,
// and asserts shed operations surface as ErrOverloaded — typed, distinct
// from transport errors — while the server counts them. Run with -race.
func TestAdmissionShedsTyped(t *testing.T) {
	srv, _ := startServer(t, 500, ServerConfig{
		HeartbeatInterval: time.Millisecond,
		AdmissionUtil:     1e-9, // arms on the first busy heartbeat window
		DispatchWorkers:   2,
		dispatchQueue:     4,
	})

	var overloaded, ok atomic.Uint64
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	stop := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c, err := dialClient(srv.Addr().String(), ClientConfig{Deadline: time.Microsecond})
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := c.Search(randRect(rng, 0.2))
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrOverloaded):
					overloaded.Add(1)
				default:
					errc <- fmt.Errorf("untyped error under overload: %w", err)
					return
				}
			}
		}(int64(i))
	}
	deadline := time.Now().Add(10 * time.Second)
	for overloaded.Load() < 50 && time.Now().Before(deadline) && len(errc) == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := overloaded.Load(); got < 50 {
		t.Fatalf("saw %d ErrOverloaded, want >= 50 (ok=%d)", got, ok.Load())
	}
	if st := srv.Stats(); st.Overloaded == 0 {
		t.Fatal("server Stats().Overloaded = 0 after shedding")
	}
}

// TestMuxOffAdmissionOffMatchesBaseline drives an identical seeded
// workload through a dedicated connection (the PR-8 baseline shape) and
// through a stream of a shared connection against identically-built
// servers with admission control off, and requires bit-for-bit equal
// results: same items, same order, same errors.
func TestMuxOffAdmissionOffMatchesBaseline(t *testing.T) {
	srvA, _ := startServer(t, 400, ServerConfig{})
	srvB, _ := startServer(t, 400, ServerConfig{})

	base := dial(t, srvA, ClientConfig{}) // owns its connection: baseline
	m, err := DialMux(srvB.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Extra attached streams prove sharing itself doesn't perturb results.
	if _, err := m.Client(ClientConfig{}); err != nil {
		t.Fatal(err)
	}
	mux, err := m.Client(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}

	type op struct {
		kind wire.MsgType
		rect geo.Rect
		ref  uint64
	}
	rng := rand.New(rand.NewSource(33))
	var ops []op
	for i := 0; i < 200; i++ {
		switch {
		case i%5 == 1:
			ops = append(ops, op{wire.MsgInsert, randRect(rng, 0.001), uint64(1<<30 + i)})
		case i%11 == 2:
			ops = append(ops, op{wire.MsgDelete, randRect(rng, 0.001), uint64(1<<30 + i - 4)})
		default:
			ops = append(ops, op{kind: wire.MsgSearch, rect: randRect(rng, 0.05)})
		}
	}

	run := func(c *Client, o op) ([]wire.Item, error) {
		switch o.kind {
		case wire.MsgInsert:
			return nil, c.Insert(o.rect, o.ref)
		case wire.MsgDelete:
			return nil, c.Delete(o.rect, o.ref)
		default:
			items, _, err := c.Search(o.rect)
			return items, err
		}
	}
	for i, o := range ops {
		wantItems, wantErr := run(base, o)
		gotItems, gotErr := run(mux, o)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("op %d: baseline err %v, mux err %v", i, wantErr, gotErr)
		}
		if len(wantItems) != len(gotItems) {
			t.Fatalf("op %d: baseline %d items, mux %d", i, len(wantItems), len(gotItems))
		}
		for j := range wantItems {
			if wantItems[j] != gotItems[j] {
				t.Fatalf("op %d item %d: baseline %+v, mux %+v", i, j, wantItems[j], gotItems[j])
			}
		}
	}

	// A batch through each shape must fold identically too.
	var batch []BatchOp
	for i := 0; i < 16; i++ {
		batch = append(batch, BatchOp{Type: wire.MsgSearch, Rect: randRect(rng, 0.05)})
	}
	wantRes := base.ExecBatch(batch, nil)
	gotRes := mux.ExecBatch(batch, nil)
	for i := range wantRes {
		if (wantRes[i].Err == nil) != (gotRes[i].Err == nil) || len(wantRes[i].Items) != len(gotRes[i].Items) {
			t.Fatalf("batch op %d diverged: %+v vs %+v", i, wantRes[i], gotRes[i])
		}
		for j := range wantRes[i].Items {
			if wantRes[i].Items[j] != gotRes[i].Items[j] {
				t.Fatalf("batch op %d item %d diverged", i, j)
			}
		}
	}
}

// TestC10K attaches ten thousand logical clients through a capped pool —
// at most 64 TCP connections — and requires every operation to succeed
// with a bounded tail. The scale drops under -short.
func TestC10K(t *testing.T) {
	clients := 10_000
	if testing.Short() {
		clients = 1_000
	}
	srv, _ := startServer(t, 1_000, ServerConfig{})
	pool := NewMuxPool(64)
	defer pool.Close()
	addr := srv.Addr().String()

	// Attach everything first: C10K is about concurrent logical clients,
	// not cumulative ones.
	cs := make([]*Client, clients)
	for i := range cs {
		c, err := pool.Client(addr, ClientConfig{})
		if err != nil {
			t.Fatalf("attach client %d: %v", i, err)
		}
		cs[i] = c
	}
	if n := pool.Conns(); n > 64 {
		t.Fatalf("pool used %d TCP connections, cap 64", n)
	}

	var failures atomic.Uint64
	lat := make([]int64, clients)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2048)
	for i, c := range cs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, c *Client) {
			defer wg.Done()
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(int64(i)))
			start := time.Now()
			for j := 0; j < 2; j++ {
				if _, _, err := c.Search(randRect(rng, 0.01)); err != nil {
					failures.Add(1)
					return
				}
			}
			lat[i] = int64(time.Since(start))
		}(i, c)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d clients failed", n, clients)
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	p99 := time.Duration(lat[clients*99/100])
	t.Logf("%d clients over %d conns: p50 %v p99 %v",
		clients, pool.Conns(), time.Duration(lat[clients/2]), p99)
	if p99 > 10*time.Second {
		t.Fatalf("p99 %v unbounded", p99)
	}
	for _, c := range cs {
		c.Close()
	}
}
