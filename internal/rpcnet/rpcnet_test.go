package rpcnet

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// startServer builds a tree with n uniform items and serves it on a random
// localhost port.
func startServer(t *testing.T, n int, cfg ServerConfig) (*Server, *rtree.Tree) {
	t.Helper()
	reg, err := region.New(1<<14, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 {
		rng := rand.New(rand.NewSource(1))
		items := make([]rtree.Entry, n)
		for i := range items {
			items[i] = rtree.Entry{Rect: randRect(rng, 0.01), Ref: uint64(i)}
		}
		if err := tree.BulkLoad(items, 0); err != nil {
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

func randRect(rng *rand.Rand, maxEdge float64) geo.Rect {
	w, h := rng.Float64()*maxEdge, rng.Float64()*maxEdge
	x, y := rng.Float64()*(1-w), rng.Float64()*(1-h)
	return geo.Rect{MinX: x, MaxX: x + w, MinY: y, MaxY: y + h}
}

func dial(t *testing.T, srv *Server, cfg ClientConfig) *Client {
	t.Helper()
	c, err := dialClient(srv.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestHelloExchange(t *testing.T) {
	srv, tree := startServer(t, 100, ServerConfig{HeartbeatInterval: 5 * time.Millisecond})
	c := dial(t, srv, ClientConfig{})
	h := c.Hello()
	if int(h.RootChunk) != tree.RootChunk() {
		t.Errorf("root chunk %d, want %d", h.RootChunk, tree.RootChunk())
	}
	if int(h.ChunkSize) != tree.Region().ChunkSize() {
		t.Errorf("chunk size %d", h.ChunkSize)
	}
	if int(h.MaxEntries) != tree.MaxEntries() {
		t.Errorf("max entries %d", h.MaxEntries)
	}
	if h.HeartbeatMs != 5 {
		t.Errorf("heartbeat ms %d", h.HeartbeatMs)
	}
}

func TestSearchFastAndOffloadAgree(t *testing.T) {
	srv, tree := startServer(t, 5000, ServerConfig{})
	fast := dial(t, srv, ClientConfig{Forced: MethodFast})
	off := dial(t, srv, ClientConfig{Forced: MethodOffload})
	offMulti := dial(t, srv, ClientConfig{Forced: MethodOffload, MultiIssue: true})

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 25; i++ {
		q := randRect(rng, rng.Float64()*0.2)
		want, _, err := tree.SearchCollect(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Client{fast, off, offMulti} {
			items, _, err := c.Search(q)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			if len(items) != len(want) {
				t.Fatalf("query %d: got %d items, want %d", i, len(items), len(want))
			}
		}
	}
	if srv.Stats().Reads[wire.SpaceChunks] == 0 {
		t.Error("offload clients performed no chunk reads")
	}
}

func TestInsertDelete(t *testing.T) {
	srv, _ := startServer(t, 100, ServerConfig{})
	c := dial(t, srv, ClientConfig{})
	r := geo.NewRect(0.3, 0.3, 0.31, 0.31)
	if err := c.Insert(r, 4242); err != nil {
		t.Fatal(err)
	}
	items, _, err := c.Search(r)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, it := range items {
		if it.Ref == 4242 {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted item not visible")
	}
	if err := c.Delete(r, 4242); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(r, 4242); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete err = %v", err)
	}
}

func TestLargeResponseSegmentation(t *testing.T) {
	srv, _ := startServer(t, 3000, ServerConfig{MaxSegmentItems: 50})
	c := dial(t, srv, ClientConfig{})
	items, _, err := c.Search(geo.NewRect(0, 0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3000 {
		t.Fatalf("got %d items, want 3000", len(items))
	}
}

func TestHeartbeatsArrive(t *testing.T) {
	srv, _ := startServer(t, 100, ServerConfig{HeartbeatInterval: 2 * time.Millisecond})
	c := dial(t, srv, ClientConfig{Adaptive: true})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().HeartbeatsSeen > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no heartbeats within deadline")
}

// Real goroutine concurrency: parallel searching clients race a writing
// client; offload readers must absorb torn reads / staleness via retries
// and never return garbage. Run with -race.
func TestConcurrentReadersAndWriter(t *testing.T) {
	srv, tree := startServer(t, 4000, ServerConfig{})
	stop := make(chan struct{})
	errCh := make(chan error, 8)

	// Writer: continuous inserts until the readers finish.
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		c, err := dialClient(srv.Addr().String(), ClientConfig{})
		if err != nil {
			errCh <- err
			return
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(3))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Insert(randRect(rng, 0.01), uint64(1_000_000+i)); err != nil {
				select {
				case <-stop: // teardown race is fine
				default:
					errCh <- err
				}
				return
			}
		}
	}()

	var readerWG sync.WaitGroup
	for g := 0; g < 3; g++ {
		readerWG.Add(1)
		seed := int64(g + 10)
		go func() {
			defer readerWG.Done()
			c, err := dialClient(srv.Addr().String(), ClientConfig{Forced: MethodOffload, MultiIssue: true, Seed: seed})
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				q := randRect(rng, 0.05)
				items, _, err := c.Search(q)
				if err != nil {
					errCh <- err
					return
				}
				for _, it := range items {
					if !q.Intersects(it.Rect) {
						errCh <- errors.New("result does not intersect query")
						return
					}
				}
			}
		}()
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()

	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if srv.Stats().Inserts == 0 {
		t.Error("writer performed no inserts")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, _ := startServer(t, 100, ServerConfig{})
	c := dial(t, srv, ClientConfig{})
	if _, _, err := c.Search(geo.NewRect(0, 0, 0.1, 0.1)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	_, _, err := c.Search(geo.NewRect(0, 0, 0.1, 0.1))
	if err == nil {
		t.Fatal("search after server close should fail")
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := dialClient("127.0.0.1:1", ClientConfig{}); err == nil {
		t.Fatal("dial to closed port should fail")
	}
}

func TestAdaptiveOffloadsOverRealTCP(t *testing.T) {
	// With heartbeats flowing and a threshold below the utilization floor,
	// Algorithm 1 must start offloading real-TCP reads.
	srv, _ := startServer(t, 2000, ServerConfig{HeartbeatInterval: 2 * time.Millisecond})
	c := dial(t, srv, ClientConfig{Adaptive: true, T: 1e-9, N: 8, Seed: 42})
	deadline := time.Now().Add(5 * time.Second)
	rng := rand.New(rand.NewSource(1))
	for time.Now().Before(deadline) {
		q := randRect(rng, 0.05)
		if _, _, err := c.Search(q); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.OffloadSearches > 0 && st.FastSearches > 0 {
			return // both paths exercised adaptively
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("adaptive client never mixed paths: %+v", c.Stats())
}

func TestNodeCacheOverTCP(t *testing.T) {
	// Without heartbeats the cache lease is zero, so every hit must
	// revalidate through a version READ: results stay equal to
	// the oracle while full chunk fetches drop.
	srv, tree := startServer(t, 5000, ServerConfig{})
	plain := dial(t, srv, ClientConfig{Forced: MethodOffload, MultiIssue: true})
	cached := dial(t, srv, ClientConfig{Forced: MethodOffload, MultiIssue: true, NodeCache: 256})

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 25; i++ {
		q := randRect(rng, 0.05)
		want, _, err := tree.SearchCollect(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Client{plain, cached} {
			items, _, err := c.Search(q)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			if len(items) != len(want) {
				t.Fatalf("query %d: got %d items, want %d", i, len(items), len(want))
			}
		}
	}
	ps, cs := plain.Stats(), cached.Stats()
	if cs.NodesFetched >= ps.NodesFetched {
		t.Errorf("cached fetched %d chunks, plain %d — cache saved nothing",
			cs.NodesFetched, ps.NodesFetched)
	}
	if cs.CacheVerifiedHits == 0 {
		t.Error("zero-lease cache recorded no verified hits")
	}
	if srv.Stats().Reads[wire.SpaceVersions] == 0 {
		t.Error("server answered no version READs")
	}
	t.Logf("plain=%d cached=%d chunks (verified=%d versionReads=%d saved=%dB)",
		ps.NodesFetched, cs.NodesFetched, cs.CacheVerifiedHits, cs.VersionReads, cs.CacheBytesSaved)
}

func TestNodeCacheLeaseHitsOverTCP(t *testing.T) {
	// With a long heartbeat interval the lease covers the whole test:
	// repeated traversals must serve internal nodes with zero network.
	srv, _ := startServer(t, 5000, ServerConfig{HeartbeatInterval: time.Second})
	cached := dial(t, srv, ClientConfig{Forced: MethodOffload, MultiIssue: true, NodeCache: 256})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 25; i++ {
		if _, _, err := cached.Search(randRect(rng, 0.05)); err != nil {
			t.Fatal(err)
		}
	}
	if cs := cached.Stats(); cs.CacheHits == 0 {
		t.Errorf("no lease-fresh hits under a 1s heartbeat: %+v", cs)
	}
}

// Cached readers race a writer over real sockets; every result must still be
// query-consistent and the cache must stay coherent within one heartbeat.
// Run with -race.
func TestNodeCacheConcurrentWriterOverTCP(t *testing.T) {
	srv, tree := startServer(t, 4000, ServerConfig{HeartbeatInterval: 2 * time.Millisecond})
	stop := make(chan struct{})
	errCh := make(chan error, 8)

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		c, err := dialClient(srv.Addr().String(), ClientConfig{})
		if err != nil {
			errCh <- err
			return
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(4))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Insert(randRect(rng, 0.01), uint64(1_000_000+i)); err != nil {
				select {
				case <-stop:
				default:
					errCh <- err
				}
				return
			}
		}
	}()

	var cacheActivity atomic.Uint64
	var readerWG sync.WaitGroup
	for g := 0; g < 3; g++ {
		readerWG.Add(1)
		seed := int64(g + 20)
		go func() {
			defer readerWG.Done()
			c, err := dialClient(srv.Addr().String(), ClientConfig{
				Forced: MethodOffload, MultiIssue: true, Seed: seed, NodeCache: 128,
			})
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				q := randRect(rng, 0.05)
				items, _, err := c.Search(q)
				if err != nil {
					errCh <- err
					return
				}
				for _, it := range items {
					if !q.Intersects(it.Rect) {
						errCh <- errors.New("result does not intersect query")
						return
					}
				}
			}
			st := c.Stats()
			cacheActivity.Add(st.CacheHits + st.CacheVerifiedHits)
		}()
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()

	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if cacheActivity.Load() == 0 {
		t.Error("cached readers never hit the cache")
	}
}

func TestHelloRootVersionEpoch(t *testing.T) {
	srv, _ := startServer(t, 10, ServerConfig{})
	a := dial(t, srv, ClientConfig{})
	b := dial(t, srv, ClientConfig{})
	if a.Hello().ServerEpoch != b.Hello().ServerEpoch {
		t.Error("clients of one server saw different epochs")
	}
	if a.Hello().NumChunks == 0 {
		t.Error("hello missing region geometry")
	}
}
