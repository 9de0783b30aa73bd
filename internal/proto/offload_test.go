package proto

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/adaptive"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/nodecache"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// fakeReads is the fake transport's one-sided read half: Post snapshots the
// requested bytes out of a local region into a completion queue, Pop hands
// them out — oldest first, or in the order pick chooses — through a hook that
// can damage or fail a completion. Bytes handed out are overwritten at the
// next Pop or Post, as a pooled frame's would be.
type fakeReads struct {
	reg     *region.Region
	rootVer uint64
	span    int // adjacent chunk reads one request carries (for the WQE count)

	cq     []fakeDone
	pick   func(n int) int       // which of n queued completions Pop takes (nil = 0)
	mangle func(r Read, d *Done) // called on each completion as it is popped
	failAt int                   // the failAt-th read posted from now on fails its Post (0 = never)
	reads  map[int]int           // full-chunk reads posted, per chunk
	last   []byte                // the last Pop's bytes
}

type fakeDone struct {
	r Read
	d Done
}

var errFakePost = errors.New("fake: post failed")

func (f *fakeReads) poison() {
	for i := range f.last {
		f.last[i] = 0xDB
	}
	f.last = nil
}

func (f *fakeReads) Post(wave []Read) (posted, wqes int, err error) {
	f.poison()
	run := 0 // reads the current request carries
	for i, r := range wave {
		if f.failAt > 0 {
			if f.failAt--; f.failAt == 0 {
				return i, wqes, errFakePost
			}
		}
		var d Done
		if r.Versions {
			d.Data = make([]byte, f.reg.VersionsSize())
			d.Err = f.reg.ReadVersions(r.Chunk, d.Data)
		} else {
			d.Data = make([]byte, f.reg.ChunkSize())
			d.Err = f.reg.ReadChunkRaw(r.Chunk, d.Data)
			if f.reads != nil {
				f.reads[r.Chunk]++
			}
		}
		d.Tag = r.Tag
		if i > 0 && !r.Versions && !wave[i-1].Versions && r.Chunk == wave[i-1].Chunk+1 && run < f.span {
			run++
		} else {
			wqes, run = wqes+1, 1
		}
		f.cq = append(f.cq, fakeDone{r, d})
		posted++
	}
	return posted, wqes, nil
}

func (f *fakeReads) Pop() (Done, error) {
	f.poison()
	if len(f.cq) == 0 {
		return Done{}, errors.New("fake: Pop with nothing posted (a real transport would hang)")
	}
	i := 0
	if f.pick != nil {
		i = f.pick(len(f.cq))
	}
	fd := f.cq[i]
	f.cq = append(f.cq[:i], f.cq[i+1:]...)
	if f.mangle != nil {
		f.mangle(fd.r, &fd.d)
	}
	f.last = fd.d.Data
	return fd.d, nil
}

func (f *fakeReads) RootVersion() uint64 { return f.rootVer }

// Charge advances the clock by the node examination cost the test set.
func (f *fakeTransport) Charge() { f.now += f.charge }

// tear makes a raw chunk image fail validation as a torn read.
func tear(raw []byte) { raw[0] |= 1 }

// offloadRig is a bulk-loaded tree served through the fake transport, with
// the entry list a brute-force scan answers from.
type offloadRig struct {
	tree    *rtree.Tree
	entries []rtree.Entry
	ft      *fakeTransport
	cache   *nodecache.Cache
	o       Ops[*fakeTransport]
}

func newOffloadRig(t *testing.T, items int, cfg OpsConfig, cacheCap int) *offloadRig {
	t.Helper()
	reg, err := region.New(1<<10, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	r := &offloadRig{tree: tree, entries: make([]rtree.Entry, items)}
	for i := range r.entries {
		r.entries[i] = rtree.Entry{Rect: testRect(rng, 0.02), Ref: uint64(i)}
	}
	if err := tree.BulkLoad(append([]rtree.Entry(nil), r.entries...), 0); err != nil {
		t.Fatal(err)
	}
	r.ft = &fakeTransport{fakeReads: fakeReads{reg: reg, span: cfg.MergeSpan, reads: map[int]int{}}}
	r.cache = nodecache.New(cacheCap, time.Millisecond, reg.ChunkSize(), reg.VersionsSize())
	cfg.Forced = MethodOffload
	cfg.Messaging = MethodFast
	cfg.Switch = adaptive.Config{Inv: time.Millisecond}
	cfg.Rand = rand.New(rand.NewSource(1))
	cfg.Tree = Tree{RootChunk: tree.RootChunk(), NumChunks: reg.NumChunks(), MaxEntries: tree.MaxEntries()}
	cfg.Cache = r.cache
	r.o = Bind(NewCore(cfg), r.ft)
	return r
}

func testRect(rng *rand.Rand, edge float64) geo.Rect {
	w, h := rng.Float64()*edge, rng.Float64()*edge
	x, y := rng.Float64()*(1-w), rng.Float64()*(1-h)
	return geo.NewRect(x, y, x+w, y+h)
}

// want is the brute-force answer to q, as sorted refs.
func (r *offloadRig) want(q geo.Rect) []uint64 {
	var refs []uint64
	for _, e := range r.entries {
		if q.Intersects(e.Rect) {
			refs = append(refs, e.Ref)
		}
	}
	slices.Sort(refs)
	return refs
}

func sortedRefs(items []wire.Item) []uint64 {
	refs := make([]uint64, len(items))
	for i, it := range items {
		refs[i] = it.Ref
	}
	slices.Sort(refs)
	return refs
}

// checkSearch runs q and requires the brute-force answer and a traversal
// that left nothing behind.
func (r *offloadRig) checkSearch(t *testing.T, q geo.Rect) {
	t.Helper()
	items, m, err := r.o.Search(q)
	if err != nil || m != MethodOffload {
		t.Fatalf("search %v: method %v, err %v", q, m, err)
	}
	if got, want := sortedRefs(items), r.want(q); !slices.Equal(got, want) {
		t.Fatalf("search %v: %d items, brute force finds %d", q, len(got), len(want))
	}
	r.checkQuiet(t)
}

// checkQuiet requires that no read is queued, tracked or parked.
func (r *offloadRig) checkQuiet(t *testing.T) {
	t.Helper()
	quiet(t, r.ft, r.o.walk)
}

func (r *offloadRig) whole() geo.Rect { return geo.NewRect(0, 0, 1, 1) }

// rootChild returns the chunk of the root's i-th child.
func (r *offloadRig) rootChild(t *testing.T, i int) int {
	t.Helper()
	reg := r.tree.Region()
	raw := make([]byte, reg.ChunkSize())
	payload, _, err := reg.ReadChunk(r.tree.RootChunk(), raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	var root rtree.Node
	if err := rtree.DecodeNode(payload, &root, r.tree.MaxEntries()); err != nil {
		t.Fatal(err)
	}
	if root.Level < 2 || len(root.Entries) <= i {
		t.Fatalf("root at level %d with %d children: tree too small for the test", root.Level, len(root.Entries))
	}
	return int(root.Entries[i].Ref)
}

// walkRig is one index served through the fake transport — the R-tree
// (offloadRig) or the B+-tree (keyRig) — as the walk's tests drive it.
type walkRig interface {
	fake() *fakeTransport
	stats() telemetry.ClientSnapshot
	nodes() *nodecache.Cache
	// runWhole runs the query that reads the tree's leftmost path and, on
	// the R-tree, every subtree, on the B+-tree the whole leaf chain; an
	// answer it returns must be the tree's own. checkWhole also requires
	// that it returns one and leaves the walk quiet.
	runWhole(t *testing.T) error
	checkWhole(t *testing.T)
	// checkRandom runs one random query — wide ones span many leaves — and
	// requires the tree's own answer and a quiet walk; grow inserts one
	// random entry.
	checkRandom(t *testing.T, rng *rand.Rand, wide bool)
	grow(t *testing.T, rng *rand.Rand)
	checkQuiet(t *testing.T)
	// victim is the i-th node the whole query reads below the root, and
	// rootChunk where the root lives.
	victim(t *testing.T, i int) int
	rootChunk() int
	region() *region.Region
}

// quiet requires that no read of w is queued, tracked or parked.
func quiet[N, Q, R any](t *testing.T, ft *fakeTransport, w *Walk[N, Q, R]) {
	t.Helper()
	if len(ft.cq)+len(w.inflight)+len(w.chunkTag)+len(w.spare)+len(w.wave) != 0 {
		t.Fatalf("traversal left %d completions queued, %d reads in flight, %d chunk tags, %d spares, %d unposted",
			len(ft.cq), len(w.inflight), len(w.chunkTag), len(w.spare), len(w.wave))
	}
}

func (r *offloadRig) fake() *fakeTransport            { return r.ft }
func (r *offloadRig) stats() telemetry.ClientSnapshot { return r.o.Stats() }
func (r *offloadRig) nodes() *nodecache.Cache         { return r.cache }
func (r *offloadRig) runWhole(t *testing.T) error {
	t.Helper()
	items, _, err := r.o.Search(r.whole())
	if err == nil && !slices.Equal(sortedRefs(items), r.want(r.whole())) {
		t.Fatalf("whole-space search: %d items, brute force finds %d", len(items), len(r.want(r.whole())))
	}
	return err
}
func (r *offloadRig) checkWhole(t *testing.T) { r.checkSearch(t, r.whole()) }
func (r *offloadRig) checkRandom(t *testing.T, rng *rand.Rand, wide bool) {
	edge := 0.02
	if wide {
		edge = 0.5 // wide enough to contain level-1 subtrees
	}
	r.checkSearch(t, testRect(rng, edge))
}
func (r *offloadRig) grow(t *testing.T, rng *rand.Rand) {
	e := rtree.Entry{Rect: testRect(rng, 0.02), Ref: uint64(len(r.entries))}
	if _, err := r.tree.Insert(e.Rect, e.Ref); err != nil {
		t.Fatal(err)
	}
	r.entries = append(r.entries, e)
}
func (r *offloadRig) victim(t *testing.T, i int) int { return r.rootChild(t, i) }
func (r *offloadRig) rootChunk() int                 { return r.tree.RootChunk() }
func (r *offloadRig) region() *region.Region         { return r.tree.Region() }

// driveRandom runs 1 000 random queries through r, completions popped in
// random order, the clock running past cache leases and an insert (with the
// root-version bump its heartbeat would carry) every 50 queries.
func driveRandom(t *testing.T, r walkRig, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ft := r.fake()
	ft.pick = rng.Intn
	for i := 0; i < 1000; i++ {
		r.checkRandom(t, rng, i%10 == 0)
		ft.now += 300 * time.Microsecond
		if i%50 == 49 {
			r.grow(t, rng)
			ft.rootVer++
		}
	}
}

// TestOffloadMatchesBruteForce: 1 000 random queries per configuration of
// node cache, merge span, prefetch budget and issue mode (driveRandom) —
// windows over the R-tree, every result equal to a brute-force scan; key
// ranges and point gets over the B+-tree, every result equal to the tree's
// own Range and Get — and every walk ends with nothing in flight.
func TestOffloadMatchesBruteForce(t *testing.T) {
	type variant struct {
		cache, span, prefetch int
		single                bool
	}
	name := func(v variant) string {
		name := fmt.Sprintf("cache%d-span%d-prefetch%d", v.cache, v.span, v.prefetch)
		if v.single {
			name += "-single"
		}
		return name
	}
	var variants []variant
	for _, cache := range []int{0, 8} {
		for _, span := range []int{1, 4} {
			for _, prefetch := range []int{0, 8} {
				variants = append(variants, variant{cache: cache, span: span, prefetch: prefetch})
			}
		}
	}
	variants = append(variants, variant{single: true}, variant{cache: 8, single: true})
	for _, v := range variants {
		t.Run(name(v), func(t *testing.T) {
			r := newOffloadRig(t, 3000, OpsConfig{MultiIssue: !v.single, CacheRoot: v.cache > 0,
				MergeSpan: v.span, Prefetch: v.prefetch}, v.cache)
			driveRandom(t, r, int64(v.cache*100+v.span*10+v.prefetch))
			st := r.o.Stats()
			if v.cache > 0 && (st.CacheHits == 0 || st.CacheVerifiedHits == 0 || st.RootCacheHits == 0) {
				t.Errorf("cache never exercised: %d hits, %d verified, %d root hits", st.CacheHits, st.CacheVerifiedHits, st.RootCacheHits)
			}
			if v.prefetch > 0 && (st.PrefetchIssued == 0 || st.PrefetchHits == 0) {
				t.Errorf("speculation never exercised: %d issued, %d adopted", st.PrefetchIssued, st.PrefetchHits)
			}
			if posted := st.NodesFetched + st.VersionReads + st.PrefetchIssued; (v.span > 1) != (st.ReadWQEs < posted) {
				t.Errorf("merge span %d: %d reads in %d requests", v.span, posted, st.ReadWQEs)
			}
		})
	}
	// The B+-tree yields one ref per node: nothing to merge or to span
	// behind, so only the cache (and the revalidation hints it prefetches)
	// and the issue mode vary.
	for _, v := range []variant{{}, {cache: 8}, {cache: 8, prefetch: 8}, {single: true}, {cache: 8, single: true}} {
		t.Run("btree-"+name(v), func(t *testing.T) {
			r := newKeyRig(t, 3000, OpsConfig{MultiIssue: !v.single, CacheRoot: v.cache > 0, Prefetch: v.prefetch}, v.cache)
			driveRandom(t, r, int64(v.cache*100+v.prefetch+1))
			st := r.stats()
			if v.cache > 0 && (st.CacheHits == 0 || st.CacheVerifiedHits == 0 || st.RootCacheHits == 0) {
				t.Errorf("cache never exercised: %d hits, %d verified, %d root hits", st.CacheHits, st.CacheVerifiedHits, st.RootCacheHits)
			}
			if v.prefetch > 0 && st.PrefetchIssued == 0 {
				t.Error("revalidation never hinted a read")
			}
			if v.cache == 0 && st.VersionReads != 0 {
				t.Errorf("no cache, yet %d version reads", st.VersionReads)
			}
		})
	}
}

// TestOffloadCompletionOrder: the result set and the number of demand reads
// do not depend on the order completions arrive in.
func TestOffloadCompletionOrder(t *testing.T) {
	orders := map[string]func(n int) int{
		"fifo":   nil,
		"lifo":   func(n int) int { return n - 1 },
		"random": rand.New(rand.NewSource(3)).Intn,
	}
	fetched := map[string]uint64{}
	for name, pick := range orders {
		r := newOffloadRig(t, 3000, OpsConfig{MultiIssue: true}, 0)
		r.ft.pick = pick
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 50; i++ {
			r.checkSearch(t, testRect(rng, 0.3))
		}
		fetched[name] = r.o.Stats().NodesFetched
	}
	if fetched["lifo"] != fetched["fifo"] || fetched["random"] != fetched["fifo"] {
		t.Errorf("demand reads depend on completion order: %v", fetched)
	}
}

// indexes names the walk's two indexes; newWalkRig serves one of them, 3 000
// entries, through the fake transport.
var indexes = []string{"rtree", "btree"}

func newWalkRig(t *testing.T, index string, cfg OpsConfig, cacheCap int) walkRig {
	if index == "btree" {
		return newKeyRig(t, 3000, cfg, cacheCap)
	}
	return newOffloadRig(t, 3000, cfg, cacheCap)
}

// TestOffloadTornBudget: a chunk that reads torn every time is retried up to
// MaxChunkRetries, then the query gives up — with its sibling reads drained,
// not left in flight — and the next query, the chunk readable again, works.
func TestOffloadTornBudget(t *testing.T) {
	for _, index := range indexes {
		t.Run(index, func(t *testing.T) {
			r := newWalkRig(t, index, OpsConfig{MultiIssue: true, MaxChunkRetries: 3}, 0)
			victim, ft := r.victim(t, 0), r.fake()
			ft.mangle = func(rd Read, d *Done) {
				if rd.Chunk == victim && !rd.Versions {
					tear(d.Data)
				}
			}
			if err := r.runWhole(t); !errors.Is(err, ErrGaveUp) {
				t.Fatalf("query over a wedged chunk: err = %v, want ErrGaveUp", err)
			}
			r.checkQuiet(t)
			if st := r.stats(); st.TornRetries != 4 || ft.reads[victim] != 4 {
				t.Errorf("%d torn retries over %d reads of the chunk, want 4 and 4 (budget 3)", st.TornRetries, ft.reads[victim])
			}
			ft.mangle = nil
			r.checkWhole(t)
		})
	}
}

// TestOffloadStaleRestarts: a chunk at the wrong level, or one that does not
// decode, flushes the caches and restarts the traversal from the root; the
// restarts are bounded by MaxRestarts, and damage that passes lets the
// query finish with the right answer.
func TestOffloadStaleRestarts(t *testing.T) {
	damage := map[string]func(r walkRig, raw []byte){
		"wrong-level": func(r walkRig, raw []byte) { // the root's image where a lower node belongs
			if err := r.region().ReadChunkRaw(r.rootChunk(), raw); err != nil {
				panic(err)
			}
		},
		"undecodable": func(_ walkRig, raw []byte) { // entry count far past the chunk's capacity
			copy(raw[region.VersionSize+4:], []byte{0xFF, 0xFF, 0xFF, 0x7F})
		},
	}
	for _, index := range indexes {
		for name, hurt := range damage {
			if index == "btree" {
				name = "btree-" + name
			}
			for _, times := range []int{2, 1 << 30} {
				t.Run(fmt.Sprintf("%s-x%d", name, times), func(t *testing.T) {
					r := newWalkRig(t, index, OpsConfig{MultiIssue: true, MaxRestarts: 3}, 64)
					r.checkWhole(t) // warm the cache: the root is served from it until a flush
					ft := r.fake()
					rootReads := ft.reads[r.rootChunk()]
					victim, left := r.victim(t, 1), times
					r.nodes().Evict(victim)
					ft.mangle = func(rd Read, d *Done) {
						if rd.Chunk == victim && !rd.Versions && left > 0 {
							left--
							hurt(r, d.Data)
						}
					}
					err := r.runWhole(t)
					r.checkQuiet(t)
					st := r.stats()
					wantRestarts := uint64(min(times, 4))
					if st.StaleRestarts != wantRestarts {
						t.Errorf("%d restarts, want %d", st.StaleRestarts, wantRestarts)
					}
					// Every attempt after a restart finds the cache flushed and
					// reads the root again (MaxRestarts such attempts at most).
					if got := ft.reads[r.rootChunk()] - rootReads; got != min(times, 3) {
						t.Errorf("root re-read %d times over %d restarts: the cache was not flushed each time", got, wantRestarts)
					}
					if times > 4 {
						if !errors.Is(err, ErrGaveUp) {
							t.Fatalf("err = %v, want ErrGaveUp after MaxRestarts", err)
						}
						return
					}
					if err != nil {
						t.Fatalf("query after %d restarts: err %v", times, err)
					}
				})
			}
		}
	}
}

// TestOffloadPostFailsAfterPrefix: a Post that fails part way through a wave
// ends the query with that error; the reads of the posted prefix are
// drained, the unposted suffix is forgotten, and nothing hangs.
func TestOffloadPostFailsAfterPrefix(t *testing.T) {
	for _, multi := range []bool{true, false} {
		for _, index := range indexes {
			t.Run(fmt.Sprintf("%s-multi-%v", index, multi), func(t *testing.T) {
				r := newWalkRig(t, index, OpsConfig{MultiIssue: multi}, 0)
				r.fake().failAt = 3 // the root posts, then one child (of several, on the R-tree)
				if err := r.runWhole(t); !errors.Is(err, errFakePost) {
					t.Fatalf("err = %v, want the post error", err)
				}
				r.checkQuiet(t)
				if st := r.stats(); st.NodesFetched < 3 {
					t.Errorf("%d demand reads issued, want the failing wave to have held several", st.NodesFetched)
				}
				r.checkWhole(t)
			})
		}
	}
}

// TestOffloadSpeculationNeverFails: speculative reads that come back failed
// or torn are waste — the demand path re-reads what it needs — never a
// failed search or a wrong answer.
func TestOffloadSpeculationNeverFails(t *testing.T) {
	r := newOffloadRig(t, 3000, OpsConfig{MultiIssue: true, MergeSpan: 4, Prefetch: 8}, 8)
	rng := rand.New(rand.NewSource(5))
	r.ft.pick = rng.Intn
	spoiled := 0
	r.ft.mangle = func(rd Read, d *Done) {
		if !r.o.walk.inflight[rd.Tag].prefetch {
			return
		}
		if spoiled++; spoiled%2 == 0 {
			d.Err = errors.New("fake: speculative read refused")
		} else {
			tear(d.Data)
		}
	}
	for i := 0; i < 200; i++ {
		r.checkSearch(t, testRect(rng, 0.5))
		r.ft.now += 300 * time.Microsecond
	}
	st := r.o.Stats()
	if spoiled == 0 || st.PrefetchWaste < uint64(spoiled) {
		t.Errorf("%d speculative reads spoiled, %d counted as waste", spoiled, st.PrefetchWaste)
	}
	if st.StaleRestarts != 0 || st.TornRetries != 0 {
		t.Errorf("spoiled speculation leaked into the demand path: %d restarts, %d torn retries", st.StaleRestarts, st.TornRetries)
	}
}

// refExpand is rtreeIndex.Expand as it stood before the scan indexed
// entries in place: each entry copied out of the node, then tested with the
// short-circuit intersection test geo.Rect.Intersects used to be. It is the
// oracle for what the walk must collect.
func refExpand(n *rtree.Node, q geo.Rect, refs []Ref, out []wire.Item) ([]Ref, []wire.Item, error) {
	for _, e := range n.Entries {
		if !(q.MinX <= e.Rect.MaxX && e.Rect.MinX <= q.MaxX &&
			q.MinY <= e.Rect.MaxY && e.Rect.MinY <= q.MaxY) {
			continue
		}
		if n.IsLeaf() {
			out = append(out, wire.Item{Rect: e.Rect, Ref: e.Ref})
		} else {
			refs = append(refs, Ref{Chunk: int(e.Ref), Level: n.Level - 1,
				Rank: q.OverlapArea(e.Rect), Covered: q.Contains(e.Rect)})
		}
	}
	return refs, out, nil
}

// TestExpandMatchesReference: over random windows — points, scans, the
// whole square, and degenerate windows on a stored rectangle's edge — and
// every node of a bulk-loaded tree, rtreeIndex.Expand collects the same
// items and child refs, in the same order and bit for bit, as refExpand.
func TestExpandMatchesReference(t *testing.T) {
	r := newOffloadRig(t, 3000, OpsConfig{}, 0)
	reg := r.tree.Region()
	raw := make([]byte, reg.ChunkSize())
	var nodes []*rtree.Node
	for stack := []int{r.tree.RootChunk()}; len(stack) > 0; {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		payload, _, err := reg.ReadChunk(id, raw, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := &rtree.Node{}
		if err := rtree.DecodeNode(payload, n, 0); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		if !n.IsLeaf() {
			for _, e := range n.Entries {
				stack = append(stack, int(e.Ref))
			}
		}
	}
	rng := rand.New(rand.NewSource(36))
	windows := []geo.Rect{r.whole()}
	for i := 0; i < 300; i++ {
		e := r.entries[rng.Intn(len(r.entries))].Rect
		windows = append(windows, testRect(rng, 1e-3), testRect(rng, 0.1),
			geo.Rect{MinX: e.MaxX, MaxX: e.MaxX + 0.01, MinY: e.MaxY, MaxY: e.MaxY})
	}
	seed := []Ref{{Chunk: -1}}
	for _, q := range windows {
		for _, n := range nodes {
			gotRefs, gotItems, gerr := rtreeIndex{}.Expand(n, q, slices.Clone(seed), nil)
			wantRefs, wantItems, werr := refExpand(n, q, slices.Clone(seed), nil)
			if gerr != werr || len(gotRefs) != len(wantRefs) || len(gotItems) != len(wantItems) {
				t.Fatalf("window %+v, level-%d node: %d refs, %d items, %v; reference %d, %d, %v",
					q, n.Level, len(gotRefs), len(gotItems), gerr, len(wantRefs), len(wantItems), werr)
			}
			for i, g := range gotRefs {
				w := wantRefs[i]
				if g.Chunk != w.Chunk || g.Level != w.Level || g.Covered != w.Covered ||
					math.Float64bits(g.Rank) != math.Float64bits(w.Rank) {
					t.Fatalf("window %+v: ref %d = %+v, reference %+v", q, i, g, w)
				}
			}
			for i, g := range gotItems {
				if string(wire.AppendItem(nil, g.Rect, g.Ref)) != string(wire.AppendItem(nil, wantItems[i].Rect, wantItems[i].Ref)) {
					t.Fatalf("window %+v: item %d = %+v, reference %+v", q, i, g, wantItems[i])
				}
			}
		}
	}
}

// TestOffloadEvictionMidTraversal: with a node cache of one or two entries,
// multi-issue waves and merge span 8, almost every fill evicts a node that
// the same traversal may still hold on its stack; the walk reuses what the
// cache drops only from its next query on. 1 000 random queries per index,
// completions in random order, the clock running past leases, answer
// exactly what the tree itself answers: SearchCollect on the R-tree, Range
// on the B+-tree.
func TestOffloadEvictionMidTraversal(t *testing.T) {
	for _, index := range indexes {
		for _, capacity := range []int{1, 2} {
			for _, prefetch := range []int{0, 8} {
				t.Run(fmt.Sprintf("%s-cache%d-prefetch%d", index, capacity, prefetch), func(t *testing.T) {
					cfg := OpsConfig{MultiIssue: true, CacheRoot: true, MergeSpan: 8, Prefetch: prefetch}
					rng := rand.New(rand.NewSource(int64(capacity*10 + prefetch)))
					var r walkRig
					check := func(wide bool) { r.checkRandom(t, rng, wide) }
					if index == "rtree" {
						or := newOffloadRig(t, 3000, cfg, capacity)
						r = or
						check = func(wide bool) {
							edge := 0.02
							if wide {
								edge = 0.5
							}
							q := testRect(rng, edge)
							items, _, err := or.o.Search(q)
							if err != nil {
								t.Fatalf("search %v: %v", q, err)
							}
							want, _, err := or.tree.SearchCollect(q)
							if err != nil {
								t.Fatal(err)
							}
							refs := make([]uint64, len(want))
							for i, e := range want {
								refs[i] = e.Ref
							}
							slices.Sort(refs)
							if got := sortedRefs(items); !slices.Equal(got, refs) {
								t.Fatalf("search %v: %d items, SearchCollect finds %d", q, len(got), len(refs))
							}
							or.checkQuiet(t)
						}
					} else {
						r = newKeyRig(t, 3000, cfg, capacity)
					}
					r.fake().pick = rng.Intn
					for i := 0; i < 1000; i++ {
						check(i%10 == 0)
						r.fake().now += 300 * time.Microsecond
					}
					if st := r.stats(); st.CacheEvictions == 0 {
						t.Error("the cache never evicted")
					}
				})
			}
		}
	}
}

// TestOffloadStageStamps: a metered client records one wait sample — the
// time blocked in Pop — and one walk sample — the rest — per offloaded
// search, on the port's clock, and the two add up to the search's latency.
// An unmetered client times nothing.
func TestOffloadStageStamps(t *testing.T) {
	const searches = 50
	for _, metered := range []bool{true, false} {
		t.Run(fmt.Sprintf("metered-%v", metered), func(t *testing.T) {
			var reg *telemetry.Registry
			if metered {
				reg = telemetry.NewRegistry()
			}
			r := newOffloadRig(t, 3000, OpsConfig{MultiIssue: true, MergeSpan: 4, Metrics: reg}, 8)
			r.ft.charge = time.Microsecond
			r.ft.mangle = func(Read, *Done) { r.ft.now += 5 * time.Microsecond }
			rng := rand.New(rand.NewSource(9))
			var total time.Duration
			for i := 0; i < searches; i++ {
				start := r.ft.now
				r.checkSearch(t, testRect(rng, 0.1))
				total += r.ft.now - start
			}
			if !metered {
				if r.o.walk.waited != 0 {
					t.Errorf("unmetered walk timed %v of waiting", r.o.walk.waited)
				}
				return
			}
			got := map[string]telemetry.Point{}
			for _, p := range reg.Snapshot() {
				got[p.Name] = p
			}
			lat := got["catfish_client_search_latency_seconds"].Summary
			wait := got[`catfish_client_stage_seconds{stage="wait"}`].Summary
			walk := got[`catfish_client_stage_seconds{stage="walk"}`].Summary
			for name, s := range map[string]uint64{"latency": lat.Count, "wait": wait.Count, "walk": walk.Count} {
				if s != searches {
					t.Errorf("%s: %d samples over %d searches", name, s, searches)
				}
			}
			if wait.Mean <= 0 || walk.Mean <= 0 {
				t.Errorf("stage means wait %v, walk %v: both stages take clock time here", wait.Mean, walk.Mean)
			}
			// Means are sums divided by the count, rounded down.
			if d := lat.Mean - wait.Mean - walk.Mean; d < 0 || d > 1 || lat.Mean != total/searches {
				t.Errorf("mean latency %v (clock says %v) = wait %v + walk %v?", lat.Mean, total/searches, wait.Mean, walk.Mean)
			}
		})
	}
}
