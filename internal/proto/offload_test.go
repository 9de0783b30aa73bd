package proto

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/adaptive"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/nodecache"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
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

func (f *fakeReads) Charge()             {}
func (f *fakeReads) RootVersion() uint64 { return f.rootVer }

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
	tr := &r.o.tr
	if len(r.ft.cq)+len(tr.inflight)+len(tr.chunkTag)+len(tr.spare)+len(tr.wave) != 0 {
		t.Fatalf("traversal left %d completions queued, %d reads in flight, %d chunk tags, %d spares, %d unposted",
			len(r.ft.cq), len(tr.inflight), len(tr.chunkTag), len(tr.spare), len(tr.wave))
	}
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

// TestOffloadMatchesBruteForce: 1 000 random windows per configuration of
// node cache, merge span, prefetch budget and issue mode, completions popped
// in random order, the clock running past cache leases and an insert (with
// the root-version bump its heartbeat would carry) every 50 searches — every
// result equals a brute-force scan and every traversal ends with nothing in
// flight.
func TestOffloadMatchesBruteForce(t *testing.T) {
	type variant struct {
		cache, span, prefetch int
		single                bool
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
		name := fmt.Sprintf("cache%d-span%d-prefetch%d", v.cache, v.span, v.prefetch)
		if v.single {
			name += "-single"
		}
		t.Run(name, func(t *testing.T) {
			r := newOffloadRig(t, 3000, OpsConfig{MultiIssue: !v.single, CacheRoot: v.cache > 0,
				MergeSpan: v.span, Prefetch: v.prefetch}, v.cache)
			rng := rand.New(rand.NewSource(int64(v.cache*100 + v.span*10 + v.prefetch)))
			r.ft.pick = rng.Intn
			for i := 0; i < 1000; i++ {
				edge := 0.02
				if i%10 == 0 {
					edge = 0.5 // wide enough to contain level-1 subtrees
				}
				r.checkSearch(t, testRect(rng, edge))
				r.ft.now += 300 * time.Microsecond
				if i%50 == 49 {
					e := rtree.Entry{Rect: testRect(rng, 0.02), Ref: uint64(len(r.entries))}
					if _, err := r.tree.Insert(e.Rect, e.Ref); err != nil {
						t.Fatal(err)
					}
					r.entries = append(r.entries, e)
					r.ft.rootVer++
				}
			}
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

// TestOffloadTornBudget: a chunk that reads torn every time is retried up to
// MaxChunkRetries, then the search gives up — with its sibling reads drained,
// not left in flight — and the next search, the chunk readable again, works.
func TestOffloadTornBudget(t *testing.T) {
	r := newOffloadRig(t, 3000, OpsConfig{MultiIssue: true, MaxChunkRetries: 3}, 0)
	victim := r.rootChild(t, 0)
	r.ft.mangle = func(rd Read, d *Done) {
		if rd.Chunk == victim && !rd.Versions {
			tear(d.Data)
		}
	}
	if _, _, err := r.o.Search(r.whole()); !errors.Is(err, ErrGaveUp) {
		t.Fatalf("search over a wedged chunk: err = %v, want ErrGaveUp", err)
	}
	r.checkQuiet(t)
	if st := r.o.Stats(); st.TornRetries != 4 || r.ft.reads[victim] != 4 {
		t.Errorf("%d torn retries over %d reads of the chunk, want 4 and 4 (budget 3)", st.TornRetries, r.ft.reads[victim])
	}
	r.ft.mangle = nil
	r.checkSearch(t, r.whole())
}

// TestOffloadStaleRestarts: a chunk at the wrong level, or one that does not
// decode, flushes the caches and restarts the traversal from the root; the
// restarts are bounded by MaxRestarts, and damage that passes lets the
// search finish with the right answer.
func TestOffloadStaleRestarts(t *testing.T) {
	damage := map[string]func(r *offloadRig, raw []byte){
		"wrong-level": func(r *offloadRig, raw []byte) { // the root's image where a level-1 node belongs
			if err := r.tree.Region().ReadChunkRaw(r.tree.RootChunk(), raw); err != nil {
				panic(err)
			}
		},
		"undecodable": func(_ *offloadRig, raw []byte) { // entry count far past the chunk's capacity
			copy(raw[region.VersionSize+4:], []byte{0xFF, 0xFF, 0xFF, 0x7F})
		},
	}
	for name, hurt := range damage {
		for _, times := range []int{2, 1 << 30} {
			t.Run(fmt.Sprintf("%s-x%d", name, times), func(t *testing.T) {
				r := newOffloadRig(t, 3000, OpsConfig{MultiIssue: true, MaxRestarts: 3}, 64)
				r.checkSearch(t, r.whole()) // warm the cache: the root is served from it until a flush
				rootReads := r.ft.reads[r.tree.RootChunk()]
				victim, left := r.rootChild(t, 1), times
				r.cache.Evict(victim)
				r.ft.mangle = func(rd Read, d *Done) {
					if rd.Chunk == victim && !rd.Versions && left > 0 {
						left--
						hurt(r, d.Data)
					}
				}
				items, _, err := r.o.Search(r.whole())
				r.checkQuiet(t)
				st := r.o.Stats()
				wantRestarts := uint64(min(times, 4))
				if st.StaleRestarts != wantRestarts {
					t.Errorf("%d restarts, want %d", st.StaleRestarts, wantRestarts)
				}
				// Every attempt after a restart finds the cache flushed and
				// reads the root again (MaxRestarts such attempts at most).
				if got := r.ft.reads[r.tree.RootChunk()] - rootReads; got != min(times, 3) {
					t.Errorf("root re-read %d times over %d restarts: the cache was not flushed each time", got, wantRestarts)
				}
				if times > 4 {
					if !errors.Is(err, ErrGaveUp) {
						t.Fatalf("err = %v, want ErrGaveUp after MaxRestarts", err)
					}
					return
				}
				if err != nil || !slices.Equal(sortedRefs(items), r.want(r.whole())) {
					t.Fatalf("search after %d restarts: %d items, err %v", times, len(items), err)
				}
			})
		}
	}
}

// TestOffloadPostFailsAfterPrefix: a Post that fails part way through a wave
// ends the search with that error; the reads of the posted prefix are
// drained, the unposted suffix is forgotten, and nothing hangs.
func TestOffloadPostFailsAfterPrefix(t *testing.T) {
	for _, multi := range []bool{true, false} {
		r := newOffloadRig(t, 3000, OpsConfig{MultiIssue: multi}, 0)
		r.ft.failAt = 3 // the root posts, then one child of several
		if _, _, err := r.o.Search(r.whole()); !errors.Is(err, errFakePost) {
			t.Fatalf("multi-issue %v: err = %v, want the post error", multi, err)
		}
		r.checkQuiet(t)
		if st := r.o.Stats(); st.NodesFetched < 3 {
			t.Errorf("multi-issue %v: %d demand reads issued, want the failing wave to have held several", multi, st.NodesFetched)
		}
		r.checkSearch(t, r.whole())
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
		if !r.o.tr.inflight[rd.Tag].prefetch {
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
