package proto

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/nodecache"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// Read is one one-sided read of an offloaded traversal: chunk Chunk in
// full, or — the node cache's revalidation read, an eighth of the bytes for
// the default geometry — only its version words.
type Read struct {
	Tag      uint64 // traversal-chosen; comes back in the read's Done
	Chunk    int
	Versions bool
	// Retry counts the torn images of this chunk the traversal has already
	// thrown away (0 on a first read). A writer descheduled mid-publication
	// leaves a chunk torn for milliseconds of real time, so a transport whose
	// re-reads come back in microseconds paces them on it — MaxChunkRetries
	// then spans time, not only attempts. The simulated fabric ignores it.
	Retry int
}

// Done is one completed Read: the raw bytes (a chunk image for
// region.DecodeChunk, version words for region.DecodeVersions), or the error
// that failed this read alone — a refused or short reply, an out-of-bounds
// access — while the transport lives on.
type Done struct {
	Tag  uint64
	Data []byte
	Err  error
}

// Tree is the geometry of the served tree as an offloading client sees it:
// where the root lives, how many chunks the region has, the node fan-out a
// chunk may decode to, and which index the server announced, so which walk
// reads the chunks. The zero value means the transport has no one-sided
// view of an R-tree.
type Tree struct {
	RootChunk, NumChunks, MaxEntries int
	Kind                             wire.IndexKind
}

// ReadPort is what an offloaded walk needs from a transport: the clock cache
// leases and the prefetch bucket run on, the heartbeat's utilization and
// root-version words, the post/pop of one-sided reads, and the charge for
// examining one node.
type ReadPort interface {
	// Now is the time heartbeat intervals and latencies are measured in.
	Now() time.Duration
	// Heartbeat returns the latest unconsumed heartbeat's CPU and TX
	// utilization words (cpu 0 = none, per the paper's u_serv != 0 check).
	Heartbeat() (cpu, tx float64)
	// Post submits one wave of one-sided tree reads in the order given and
	// returns how many of them — always a prefix — were posted and how many
	// requests (WQEs, frames) carried them: consecutive reads of adjacent
	// chunks coalesce up to the transport's merge span. Reads past the prefix
	// will never complete. An empty wave posts nothing; like every Post it
	// ends the validity of the last completion's bytes.
	Post(wave []Read) (posted, wqes int, err error)
	// Pop blocks for one completion of a posted read, in arrival order; its
	// bytes are valid until the next Pop or Post. An error means the
	// transport failed and has dropped every outstanding read.
	Pop() (Done, error)
	// Charge accounts the client-side work of examining one node (decode +
	// intersection checks); real sockets spend it rather than model it.
	Charge()
	// RootVersion is the root chunk's version as of the latest heartbeat (0
	// before the first).
	RootVersion() uint64
}

// Ref is one node an expansion asks the walk to visit: its chunk and the
// level it must decode to (-1 for the root, whose level the client learns as
// the tree grows), with what speculation ranks it by — its priority among
// its siblings (larger first) and whether the query covers its whole
// subtree, so that every chunk laid out behind it is wanted.
type Ref struct {
	Chunk   int
	Level   int
	Rank    float64
	Covered bool
}

// Index is the linked structure an offloaded walk runs over (§VI): nodes N
// stored one per region chunk, queries Q and the results R they collect. The
// walk keeps the whole protocol — waves, tags, version validation, torn
// retries and restarts, the lease, the node cache, speculation and every
// counter; the index only decodes nodes and says, per node, where a query
// goes next and what it collects there.
type Index[N, Q, R any] interface {
	// Decode parses a validated chunk payload into n, reusing n's storage;
	// maxEntries is the served tree's fan-out. An error means the chunk holds
	// no node — freed and reused under the walk — which restarts it.
	Decode(payload []byte, n *N, maxEntries int) error
	// Level is n's level, 0 for a leaf.
	Level(n *N) int
	// Clone copies n out of a reused decode buffer for the caches: into dst,
	// reusing its storage, or into a new node when dst is nil.
	Clone(dst, n *N) *N
	// Expand appends to refs the children of n that q visits and to out the
	// results n contributes to q. An error means the structure changed under
	// the walk, which restarts it.
	Expand(n *N, q Q, refs []Ref, out []R) ([]Ref, []R, error)
}

// errStale signals that the traversal observed a structurally inconsistent
// node — a split or condense re-used the chunk under the reader — and must
// restart from the root.
var errStale = errors.New("catfish: stale node during offloaded traversal")

// pending is what the traversal remembers about one in-flight read.
type pending struct {
	Ref
	tries    int
	verify   bool // a version-only revalidation read
	prefetch bool // speculative; not yet claimed by the traversal
}

// maxKeptResults bounds the result buffer a walk keeps between queries: a
// larger one, grown by a wide offloaded scan, is dropped rather than pinned.
const maxKeptResults = 4096

// maxFreeNodes bounds the dropped cache nodes a walk keeps for reuse; a scan
// that evicts more leaves the rest to the collector.
const maxFreeNodes = 64

// Walk is the state of one client's offloaded walk over an index, kept
// across queries so a query allocates its result and nothing else. Offload
// runs it; like the client that owns it, it serves one caller at a time.
type Walk[N, Q, R any] struct {
	ix       Index[N, Q, R]
	cfg      OpsConfig
	counters *telemetry.ClientMetrics
	// waited sums the time the current query blocked in Pop, on a metered
	// client (cfg.Metrics set); it stays 0 otherwise.
	waited time.Duration

	// root is the last consistent root image (CacheRoot); rootVer the root
	// version last seen in the heartbeat, whose change ends the lease of
	// both root and the node cache.
	root    *N
	rootVer uint64

	q Q
	// items collects the current attempt's results; Offload returns a copy.
	items  []R
	tagSeq uint64
	// inflight is every posted-or-about-to-be read by tag; chunkTag the
	// in-flight full-chunk read (demand or speculative) per chunk, for
	// duplicate suppression and prefetch adoption.
	inflight map[uint64]pending
	chunkTag map[int]uint64
	// spare holds speculative chunks that completed before any demand visit
	// claimed them: with merging on, the pre-post sort can deliver a
	// speculative read ahead of the revalidation that hinted it, so the bytes
	// are parked for same-traversal adoption instead of being written off on
	// arrival. Leftovers are absorbed when the traversal ends.
	spare    map[int][]byte
	spareIDs []int
	stack    []*N   // consistent nodes awaiting expansion
	refs     []Ref  // the single-issue frontier, popped last first
	kids     []Ref  // the refs of the node being expanded
	cands    []Ref  // hintSpans' scratch
	wave     []Read // reads accumulated since the last Post

	// node and payload are the decode buffers of the chunk last fetched;
	// spec decodes speculative chunks, which arrive while node's entries are
	// still being walked.
	node    N
	spec    N
	payload []byte

	// Node storage for cache fills. parked holds the nodes the node cache
	// and the root cache dropped during the current query — the traversal
	// may still hold them — and free those of earlier queries, which
	// nothing references any more: Clone fills reuse them.
	parked, free []*N

	// Prefetch token bucket: prefTokens remain (≤ cfg.Prefetch), refilled
	// lazily at prefLast.
	prefTokens float64
	prefLast   time.Duration
}

// NewWalk returns a walk over ix configured by cfg's walk fields (Tree,
// MultiIssue, CacheRoot, MergeSpan, MaxRestarts, MaxChunkRetries, Cache,
// Prefetch and the Switch's T and Inv, which pace the prefetch bucket),
// counting into counters.
func NewWalk[N, Q, R any](ix Index[N, Q, R], cfg OpsConfig, counters *telemetry.ClientMetrics) *Walk[N, Q, R] {
	cfg = cfg.withDefaults()
	return &Walk[N, Q, R]{ix: ix, cfg: cfg, counters: counters,
		inflight: map[uint64]pending{}, chunkTag: map[int]uint64{}, spare: map[int][]byte{},
		prefTokens: float64(cfg.Prefetch)} // start full: idle until told otherwise
}

// walker is a Walk bound to the port one query runs over.
type walker[N, Q, R any, P ReadPort] struct {
	*Walk[N, Q, R]
	p P
}

// Offload answers q by walking w's index from the client with one-sided
// reads over p (§III-B). Each fetched chunk is validated against its
// cacheline versions; a torn read is retried. A node whose level disagrees
// with the walk's expectation, that does not decode, or that the index finds
// inconsistent means the structure changed under the reader: the whole walk
// restarts from the root, bounded by MaxRestarts, and what it collected is
// thrown away. The result is the one allocation: an exact-size copy, or nil
// when nothing matched.
func Offload[N, Q, R any, P ReadPort](w *Walk[N, Q, R], p P, q Q) ([]R, error) {
	o := walker[N, Q, R, P]{w, p}
	o.q = q
	o.waited = 0
	o.recycle()
	for attempt := 0; attempt <= o.cfg.MaxRestarts; attempt++ {
		o.items = o.items[:0]
		o.syncLease()
		err := o.walk()
		// Nothing to post: the last completion's bytes are done with.
		o.p.Post(nil) //nolint:errcheck // an empty wave cannot fail
		if err == nil {
			return o.result(), nil
		}
		if !errors.Is(err, errStale) {
			return nil, err
		}
		// The tree changed shape under us: drop the cached root and flush
		// the node cache — the stale entry's ancestors are unknown, so the
		// full flush conservatively covers them all.
		o.dropRoot()
		o.cfg.Cache.Flush()
		o.counters.StaleRestarts.Inc()
	}
	return nil, ErrGaveUp
}

// result copies the query's results out of the kept buffer, which is
// dropped when a wide scan grew it past maxKeptResults.
func (w *Walk[N, Q, R]) result() []R {
	var out []R
	if len(w.items) > 0 {
		out = slices.Clone(w.items)
	}
	if cap(w.items) > maxKeptResults {
		w.items = nil
	}
	return out
}

// recycle starts a query: the nodes dropped during the previous one are no
// longer referenced by any traversal, so their storage may take fills.
func (w *Walk[N, Q, R]) recycle() {
	w.free = append(w.free, w.parked...)
	clear(w.parked)
	w.parked = w.parked[:0]
	if len(w.free) > maxFreeNodes {
		clear(w.free[maxFreeNodes:])
		w.free = w.free[:maxFreeNodes]
	}
}

// park keeps a node a cache dropped for reuse from the next query on: the
// current traversal may still hold it. Anything else — nil, or nothing
// dropped — is ignored.
func (w *Walk[N, Q, R]) park(dropped any) {
	if n, ok := dropped.(*N); ok && n != nil {
		w.parked = append(w.parked, n)
	}
}

// clone copies n into storage a cache dropped before this query, or into a
// new node.
func (w *Walk[N, Q, R]) clone(n *N) *N {
	var dst *N
	if k := len(w.free); k > 0 {
		dst, w.free[k-1] = w.free[k-1], nil
		w.free = w.free[:k-1]
	}
	return w.ix.Clone(dst, n)
}

// dropRoot forgets the cached root, parking its storage.
func (w *Walk[N, Q, R]) dropRoot() {
	if w.root != nil {
		w.park(w.root)
		w.root = nil
	}
}

// syncLease applies the heartbeat's root-version word to both client-side
// caches, on the goroutine that traverses: a changed root version drops the
// cached root and demotes every node-cache entry to the revalidation tier.
// The word is refreshed every heartbeat interval, so cache staleness is
// bounded by one heartbeat — lease-like semantics in the spirit of the Cell
// B-tree store the paper cites. Without server heartbeats the root cache
// has unbounded staleness; the node cache stays sound because its lease
// also expires on the clock (see nodecache).
func (o walker[N, Q, R, P]) syncLease() {
	if ver := o.p.RootVersion(); ver != o.rootVer {
		o.rootVer = ver
		o.dropRoot()
		o.cfg.Cache.DemoteAll()
	}
}

// cachedRoot returns the cached root node when root caching is enabled,
// refreshing it with one validated read when absent (syncLease has already
// applied heartbeat invalidation).
func (o walker[N, Q, R, P]) cachedRoot() (*N, error) {
	if !o.cfg.CacheRoot {
		return nil, nil
	}
	if o.root != nil {
		o.counters.RootCacheHits.Inc()
		// Examining the cached root costs the same decode/intersection work
		// as any other node visit; without this charge the cached-leaf-root
		// fast path would collect items at zero CPU cost, skewing sim
		// fairness against the uncached path (which pays in fetchRoot).
		o.p.Charge()
		return o.root, nil
	}
	if err := o.fetchRoot(); err != nil {
		return nil, err
	}
	// A leaf root is never invalidated by child-level mismatches (there are
	// no child reads), so growth would go unnoticed; serve it fresh out of
	// the decode buffer — rootFrontier expands it before the next read —
	// but do not retain it.
	if o.ix.Level(&o.node) == 0 {
		return &o.node, nil
	}
	o.root = o.clone(&o.node)
	return o.root, nil
}

// rootFrontier dispatches the start of a traversal. With a usable cached
// root, its expansion forms the initial frontier (a leaf root answers the
// query outright); otherwise the frontier is the root chunk itself, fetched
// by the traversal like any other node.
func (o walker[N, Q, R, P]) rootFrontier() error {
	root, err := o.cachedRoot()
	switch {
	case err != nil:
		return err
	case root == nil:
		o.kids = append(o.kids[:0], Ref{Chunk: o.cfg.Tree.RootChunk, Level: -1})
	default:
		if o.kids, err = o.children(root, o.kids[:0]); err != nil {
			return err
		}
	}
	return o.dispatch(o.kids)
}

// dispatch hands the walk the refs of one expansion: multi-issue visits
// them all in the current wave; single-issue pushes them on the frontier,
// which the walk pops one at a time.
func (o walker[N, Q, R, P]) dispatch(refs []Ref) error {
	if !o.cfg.MultiIssue {
		o.refs = append(o.refs, refs...)
		return nil
	}
	for _, r := range refs {
		if err := o.visit(r); err != nil {
			return err
		}
	}
	return nil
}

// children appends n's refs for the query to refs and folds its results
// into the query's; an index that finds n inconsistent is staleness.
func (o walker[N, Q, R, P]) children(n *N, refs []Ref) ([]Ref, error) {
	refs, items, err := o.ix.Expand(n, o.q, refs, o.items)
	o.items = items
	if err != nil {
		return refs, errStale
	}
	return refs, nil
}

// pop takes one completion off the transport. A transport error means every
// outstanding read is gone with it: nothing is left to drain. A metered walk
// adds the time it blocked to waited.
func (o walker[N, Q, R, P]) pop() (Done, error) {
	timed := o.cfg.Metrics != nil
	var start time.Duration
	if timed {
		start = o.p.Now()
	}
	d, err := o.p.Pop()
	if timed {
		o.waited += o.p.Now() - start
	}
	if err != nil {
		clear(o.inflight)
	}
	return d, err
}

// decode validates a raw chunk image against its cacheline versions and
// decodes it into node, asserting level when level >= 0. A torn image is
// region.ErrTornRead; a chunk that decodes as garbage — freed and reused —
// or at the wrong level is staleness, not corruption.
func (o walker[N, Q, R, P]) decode(raw []byte, node *N, level int) (ver uint64, err error) {
	payload, ver, err := region.DecodeChunk(raw, o.payload)
	if err != nil {
		return 0, err
	}
	o.payload = payload
	if err := o.ix.Decode(payload, node, o.cfg.Tree.MaxEntries); err != nil {
		return 0, errStale
	}
	if level >= 0 && o.ix.Level(node) != level {
		return 0, errStale
	}
	return ver, nil
}

// fetchRoot is the root cache's refresh: one validated read of the root
// chunk into o.node, posted and waited for before the walk has queued
// anything, torn reads retried up to the configured budget.
func (o walker[N, Q, R, P]) fetchRoot() error {
	chunk := o.cfg.Tree.RootChunk
	for retry := 0; retry <= o.cfg.MaxChunkRetries; retry++ {
		o.counters.NodesFetched.Inc()
		o.tagSeq++
		o.wave = append(o.wave[:0], Read{Tag: o.tagSeq, Chunk: chunk, Retry: retry})
		_, wqes, err := o.p.Post(o.wave)
		o.wave = o.wave[:0]
		o.counters.ReadWQEs.Add(uint64(wqes))
		var d Done
		if err == nil {
			d, err = o.pop()
		}
		if err == nil {
			err = d.Err
		}
		if err != nil {
			return fmt.Errorf("catfish: chunk %d read: %w", chunk, err)
		}
		_, err = o.decode(d.Data, &o.node, -1)
		if errors.Is(err, region.ErrTornRead) {
			o.counters.TornRetries.Inc()
			continue
		}
		if err != nil {
			return err
		}
		o.p.Charge()
		return nil
	}
	return ErrGaveUp
}

// cachePut retains the node just decoded into o.node, at region version
// ver, when it is internal (leaves absorb every insert and would thrash the
// cache). The cache gets its own copy: o.node is a reused decode buffer.
func (o walker[N, Q, R, P]) cachePut(id int, ver uint64) {
	if o.cfg.Cache == nil || o.ix.Level(&o.node) == 0 {
		return
	}
	o.park(o.cfg.Cache.Put(id, o.clone(&o.node), ver, o.p.Now()))
}

// cached unwraps a node-cache value for r, evicting it as stale when its
// level is not the one r's parent promised.
func (o walker[N, Q, R, P]) cached(v any, r Ref) (*N, error) {
	n := v.(*N)
	if r.Level >= 0 && o.ix.Level(n) != r.Level {
		o.cfg.Cache.Evict(r.Chunk)
		return nil, errStale
	}
	return n, nil
}

// walk implements §IV-C: after checking a node, reads for all the children
// it yields are posted at once; completions are processed as they arrive,
// so the round trips of independent subtrees overlap in a pipeline.
// Cache-fresh children are expanded immediately without touching the
// network; demoted entries revalidate with pipelined version-only reads,
// and only misses cost a full read.
//
// With MultiIssue off it is the FaRM-style single-issue baseline, the same
// loop with one read in flight: an expansion pushes its children on the
// refs frontier, and the loop pops the last one pushed — a depth-first
// walk — only once nothing is waiting to be expanded, posted or completed.
// Speculation stays off (specBudget).
//
// Reads are accumulated per expansion wave and posted as ONE submission (a
// doorbell batch on the fabric, one write of frames on a socket): the full
// child fetches and the version-only revalidation reads of a traversal level
// share it, paying one setup cost plus per-read wire cost.
//
// Two further read-path optimizations ride on the wave (DESIGN.md §5.9):
//
//   - Merged adjacent reads: when MergeSpan exceeds 1, the wave is sorted by
//     (kind, chunk) before posting, so reads of physically-adjacent chunks —
//     which the STR bulk loader's preorder layout makes the common case for
//     sibling leaves — coalesce into a single larger read in the transport.
//   - Speculative grandchild prefetch: while an internal node at level >= 2
//     expands, its highest-ranked children get reads posted for the chunks
//     directly behind them (preorder layout puts a child's own children
//     exactly there), bounded by the utilization-gated token bucket. A later
//     visit of a chunk whose speculative read is still in flight adopts it —
//     re-labelling it as a demand read — instead of posting a duplicate;
//     completions nobody adopted park internal nodes in the node cache and
//     count leaves/garbage as prefetch waste.
func (o walker[N, Q, R, P]) walk() error {
	o.stack, o.refs = o.stack[:0], o.refs[:0]
	if err := o.rootFrontier(); err != nil {
		return o.fail(err)
	}
	for {
		for len(o.stack) > 0 {
			n := o.stack[len(o.stack)-1]
			o.stack = o.stack[:len(o.stack)-1]
			if err := o.expand(n); err != nil {
				return o.fail(err)
			}
		}
		// Post the whole wave — full fetches, revalidations, and
		// speculative reads alike — as one submission.
		if err := o.flush(); err != nil {
			return o.fail(err)
		}
		if len(o.inflight) == 0 {
			k := len(o.refs)
			if k == 0 {
				break
			}
			r := o.refs[k-1]
			o.refs = o.refs[:k-1]
			if err := o.visit(r); err != nil {
				return o.fail(err)
			}
			continue
		}
		comp, err := o.pop()
		if err != nil {
			return o.fail(err)
		}
		ctx, ok := o.inflight[comp.Tag]
		if !ok {
			continue // completion from an abandoned traversal
		}
		if err := o.complete(comp, ctx); err != nil {
			return o.fail(err)
		}
	}
	o.absorbSpare()
	return nil
}

// complete processes the completion of in-flight read ctx.
func (o walker[N, Q, R, P]) complete(comp Done, ctx pending) error {
	delete(o.inflight, comp.Tag)
	if !ctx.verify && o.chunkTag[ctx.Chunk] == comp.Tag {
		delete(o.chunkTag, ctx.Chunk)
	}
	if ctx.prefetch {
		// Speculation never fails the search. With merging on, the wave sort
		// can deliver a speculative chunk before the revalidation that
		// hinted it, so completed bytes are parked for same-traversal
		// adoption by visit; whatever is left when the traversal ends is
		// absorbed into the cache or written off.
		if comp.Err != nil {
			o.counters.PrefetchWaste.Inc()
		} else {
			o.spare[ctx.Chunk] = append([]byte(nil), comp.Data...)
		}
		return nil
	}
	r := ctx.Ref
	if ctx.verify {
		if ver, derr := region.DecodeVersions(comp.Data); comp.Err == nil && derr == nil {
			if v, ok := o.cfg.Cache.Confirm(ctx.Chunk, ver, o.p.Now()); ok {
				n, err := o.cached(v, r)
				if err == nil {
					o.stack = append(o.stack, n)
				}
				return err
			}
		}
		// Fingerprint unreadable, torn or changed: pay for the full read,
		// which stays the authority — its own failure fails the search.
		o.issue(pending{Ref: r})
		return nil
	}
	if comp.Err != nil {
		return fmt.Errorf("catfish: chunk %d read: %w", ctx.Chunk, comp.Err)
	}
	ver, err := o.decode(comp.Data, &o.node, ctx.Level)
	if errors.Is(err, region.ErrTornRead) {
		o.counters.TornRetries.Inc()
		if ctx.tries >= o.cfg.MaxChunkRetries {
			return ErrGaveUp
		}
		o.issue(pending{Ref: r, tries: ctx.tries + 1})
		return nil
	}
	if err != nil {
		return err
	}
	// A multi-issue fill enters the cache before its children are visited;
	// a single-issue one is stamped after the node's examination is charged
	// (expand only pushes refs there, so o.node is still this node). The
	// goldens pin both orders.
	if o.cfg.MultiIssue {
		o.cachePut(ctx.Chunk, ver)
		return o.expand(&o.node)
	}
	err = o.expand(&o.node)
	o.cachePut(ctx.Chunk, ver)
	return err
}

// issue tags pd's read — demand, speculative or version-only — counts it and
// adds it to the wave.
func (o walker[N, Q, R, P]) issue(pd pending) {
	o.tagSeq++
	o.inflight[o.tagSeq] = pd
	switch {
	case pd.verify:
		o.counters.VersionReads.Inc()
	case pd.prefetch:
		o.counters.PrefetchIssued.Inc()
		o.chunkTag[pd.Chunk] = o.tagSeq
	default:
		o.counters.NodesFetched.Inc()
		o.chunkTag[pd.Chunk] = o.tagSeq
	}
	o.wave = append(o.wave, Read{Tag: o.tagSeq, Chunk: pd.Chunk, Versions: pd.verify, Retry: pd.tries})
}

// flush posts the accumulated wave as one submission. When merging is on,
// the wave is first sorted so adjacent chunks sit next to each other — the
// transport only coalesces consecutive reads. With merging off the wave
// posts in issue order.
func (o walker[N, Q, R, P]) flush() error {
	if len(o.wave) == 0 {
		return nil
	}
	if o.cfg.MergeSpan > 1 {
		slices.SortFunc(o.wave, func(a, b Read) int {
			if a.Versions != b.Versions { // full-chunk reads first
				if b.Versions {
					return -1
				}
				return 1
			}
			return cmp.Compare(a.Chunk, b.Chunk)
		})
	}
	posted, wqes, err := o.p.Post(o.wave)
	o.counters.ReadWQEs.Add(uint64(wqes))
	if err != nil {
		// The unposted suffix will never complete: drop its tracking now so
		// fail's drain terminates instead of waiting for completions that
		// cannot arrive.
		o.forget(o.wave[posted:])
	}
	o.wave = o.wave[:0]
	return err
}

// forget drops the tracking of reads that were never posted.
func (w *Walk[N, Q, R]) forget(unposted []Read) {
	for _, r := range unposted {
		if !r.Versions && w.chunkTag[r.Chunk] == r.Tag {
			delete(w.chunkTag, r.Chunk)
		}
		delete(w.inflight, r.Tag)
	}
}

// fail ends a walk with err. Every outstanding completion is drained first
// so a restart (or the next search) starts with nothing in flight; wave
// entries never posted are dropped, since no completion will ever arrive
// for them.
func (o walker[N, Q, R, P]) fail(err error) error {
	o.forget(o.wave)
	o.wave = o.wave[:0]
	for len(o.inflight) > 0 {
		comp, perr := o.pop()
		if perr != nil {
			break
		}
		if o.inflight[comp.Tag].prefetch {
			o.counters.PrefetchWaste.Inc()
		}
		delete(o.inflight, comp.Tag)
	}
	clear(o.chunkTag)
	o.absorbSpare()
	return err
}

// visit dispatches one child: a parked or in-flight speculative read for the
// chunk is adopted as the demand read, cache-fresh nodes expand locally via
// the stack, demoted entries post a version-only read (with the cached
// entries as prefetch hints), and misses post a full read.
func (o walker[N, Q, R, P]) visit(r Ref) error {
	if raw, ok := o.spare[r.Chunk]; ok {
		delete(o.spare, r.Chunk)
		if n := o.adoptSpare(r, raw); n != nil {
			o.stack = append(o.stack, n)
			return nil
		}
		// Torn or mismatched speculation: fall through to the demand path,
		// which re-reads and restarts on genuine staleness.
	}
	if tag, ok := o.chunkTag[r.Chunk]; ok {
		if pd := o.inflight[tag]; pd.prefetch {
			pd.prefetch = false
			pd.Level = r.Level
			o.inflight[tag] = pd
			o.counters.PrefetchHits.Inc()
		}
		return nil // already being fetched
	}
	switch v, out := o.cfg.Cache.Lookup(r.Chunk, o.p.Now()); out {
	case nodecache.Fresh:
		n, err := o.cached(v, r)
		if err == nil {
			o.stack = append(o.stack, n)
		}
		return err
	case nodecache.Verify:
		o.issue(pending{Ref: r, verify: true})
		o.hintSpans(v.(*N))
		return nil
	}
	o.issue(pending{Ref: r})
	return nil
}

// expand examines one consistent node: its results fold into the query's,
// its refs are dispatched, and speculation rides behind the best of them.
func (o walker[N, Q, R, P]) expand(n *N) error {
	o.p.Charge()
	kids, err := o.children(n, o.kids[:0])
	o.kids = kids
	if err != nil {
		return err
	}
	if err := o.dispatch(kids); err != nil {
		return err
	}
	o.prefetchSpans(n, kids)
	return nil
}

// byRank orders refs largest rank first: the biggest overlap is the subtree
// most likely to be traversed entirely, so its chunks repay speculation
// best.
func byRank(a, b Ref) int { return cmp.Compare(b.Rank, a.Rank) }

// specBudget is how many speculative reads the expansion of n may post: none
// with prefetching off, on a single-issue walk (whose one read in flight is
// the demand read) or below minLevel, else what the token bucket allows.
func (o walker[N, Q, R, P]) specBudget(n *N, minLevel int) int {
	if o.cfg.Prefetch <= 0 || !o.cfg.MultiIssue || o.ix.Level(n) < minLevel {
		return 0
	}
	return o.prefetchBudget()
}

// prefetchBudget refills the token bucket and returns how many speculative
// reads the current wave may post (≤ the remaining whole tokens). The
// refill rate is Prefetch tokens per heartbeat interval scaled by the
// server's idle fraction (1 − u_serv): an idle server earns the full rate,
// a server past the busy threshold T earns nothing — RFP-style speculation
// that never recreates the congestion the adaptive switch avoids.
func (o walker[N, Q, R, P]) prefetchBudget() int {
	now := o.p.Now()
	elapsed := now - o.prefLast
	o.prefLast = now
	if util, _ := o.p.Heartbeat(); util < o.cfg.Switch.T && elapsed > 0 {
		rate := float64(o.cfg.Prefetch) * (1 - util) / float64(o.cfg.Switch.Inv)
		o.prefTokens = min(o.prefTokens+rate*float64(elapsed), float64(o.cfg.Prefetch))
	}
	return int(o.prefTokens)
}

// spendPrefetch consumes n tokens after a wave posted n speculative reads.
func (w *Walk[N, Q, R]) spendPrefetch(n int) {
	w.prefTokens = max(w.prefTokens-float64(n), 0)
}

// speculable reports whether chunk id is worth a speculative read: not
// already being fetched, not already cached.
func (o walker[N, Q, R, P]) speculable(id int) bool {
	if _, busy := o.chunkTag[id]; busy {
		return false
	}
	return !o.cfg.Cache.Peek(id)
}

// hintSpans posts targeted speculative reads for the children of a
// cache-demoted node that is being revalidated: the (possibly stale) cached
// copy says exactly which chunks the next wave will demand if the
// fingerprint confirms, so those reads ride the same wave as the version
// read instead of waiting a full round trip behind it. A failed confirm
// leaves them as bounded waste — the demand path re-reads from scratch, so
// correctness never leans on the hint.
func (o walker[N, Q, R, P]) hintSpans(n *N) {
	budget := o.specBudget(n, 1)
	if budget <= 0 {
		return
	}
	o.cands, _, _ = o.ix.Expand(n, o.q, o.cands[:0], nil)
	slices.SortFunc(o.cands, byRank)
	spent := 0
	for _, cd := range o.cands {
		if spent >= budget {
			break
		}
		if cd.Chunk < o.cfg.Tree.NumChunks && o.speculable(cd.Chunk) {
			o.issue(pending{Ref: Ref{Chunk: cd.Chunk, Level: -1}, prefetch: true})
			spent++
		}
	}
	o.spendPrefetch(spent)
}

// prefetchSpans posts speculative reads behind the best-ranked of n's
// children kids. Under the preorder layout a child at chunk r keeps its own
// children at r+1, r+2, ...; a span of those merges with the demand read of
// r itself into one read when sorting brings them together.
func (o walker[N, Q, R, P]) prefetchSpans(n *N, kids []Ref) {
	budget := o.specBudget(n, 2)
	if budget <= 0 {
		return
	}
	spanK := 2
	if o.cfg.MergeSpan > 1 {
		spanK = o.cfg.MergeSpan - 1
	}
	slices.SortFunc(kids, byRank)
	spent := 0
rank:
	for _, cd := range kids {
		// Speculation rides a demand read: a span is only posted behind a
		// child whose own chunk is being fetched in full this wave, so the
		// pre-post sort lands the span directly after that read and the
		// transport folds both into one. A cache-served child is skipped —
		// speculating behind it would post a read of its own for chunks the
		// next wave will demand (and merge) anyway.
		if _, busy := o.chunkTag[cd.Chunk]; !busy {
			continue
		}
		// Only span behind a child the query covers: every descendant is
		// then wanted, so under the preorder layout the chunks right after
		// the child are speculation with guaranteed adoption. A partially
		// covered child would gamble on which of its leaves the query clips.
		if !cd.Covered {
			continue
		}
		for d := 1; d <= spanK; d++ {
			if spent >= budget {
				break rank
			}
			id := cd.Chunk + d
			if id >= o.cfg.Tree.NumChunks {
				break
			}
			if o.speculable(id) {
				o.issue(pending{Ref: Ref{Chunk: id, Level: -1}, prefetch: true})
				spent++
			}
		}
	}
	o.spendPrefetch(spent)
}

// adoptSpare turns the parked bytes of a completed speculative read into
// the node a demand visit asked for, skipping the read that visit would
// otherwise post. Torn chunks, garbage, and level mismatches return nil
// (counted as waste) and the caller falls back to the demand path —
// speculation never surfaces errStale itself. Adopted internal nodes enter
// the cache demand-attributed: they are being used right now.
func (o walker[N, Q, R, P]) adoptSpare(r Ref, raw []byte) *N {
	ver, err := o.decode(raw, &o.spec, r.Level)
	if err != nil {
		o.counters.PrefetchWaste.Inc()
		return nil
	}
	o.counters.PrefetchHits.Inc()
	n := o.clone(&o.spec)
	if o.ix.Level(n) > 0 {
		o.park(o.cfg.Cache.Put(r.Chunk, n, ver, o.p.Now()))
	} else {
		o.park(n) // on the stack until expanded, this query only
	}
	return n
}

// absorbSpare consumes the speculative chunks no demand visit adopted, in
// chunk order (map iteration order must not leak into cache state). A
// consistent internal node is parked in the node cache (flagged so its
// eventual hit or eviction is attributed to prefetching); torn reads,
// garbage, leaves — and internal nodes with no cache to park them in — count
// as prefetch waste. Speculation never propagates a failure: the traversal's
// correctness comes solely from demand reads.
func (o walker[N, Q, R, P]) absorbSpare() {
	if len(o.spare) == 0 {
		return
	}
	o.spareIDs = o.spareIDs[:0]
	for id := range o.spare {
		o.spareIDs = append(o.spareIDs, id)
	}
	slices.Sort(o.spareIDs)
	for _, id := range o.spareIDs {
		ver, err := o.decode(o.spare[id], &o.spec, -1)
		if err != nil || o.ix.Level(&o.spec) == 0 || o.cfg.Cache == nil {
			o.counters.PrefetchWaste.Inc()
			continue
		}
		o.park(o.cfg.Cache.PutPrefetched(id, o.clone(&o.spec), ver, o.p.Now()))
	}
	clear(o.spare)
}

// rtreeIndex is the R-tree's side of the walk: a query window collects the
// leaf entries it intersects and descends into the children it intersects,
// ranked for speculation by overlap area and covered when the window
// contains the child's rectangle.
type rtreeIndex struct{}

func (rtreeIndex) Decode(payload []byte, n *rtree.Node, maxEntries int) error {
	return rtree.DecodeNode(payload, n, maxEntries)
}

func (rtreeIndex) Level(n *rtree.Node) int { return n.Level }

func (rtreeIndex) Clone(dst, n *rtree.Node) *rtree.Node {
	if dst == nil {
		dst = new(rtree.Node)
	}
	dst.Level, dst.Entries = n.Level, append(dst.Entries[:0], n.Entries...)
	return dst
}

func (rtreeIndex) Expand(n *rtree.Node, q geo.Rect, refs []Ref, out []wire.Item) ([]Ref, []wire.Item, error) {
	entries := n.Entries
	if n.IsLeaf() {
		for i := range entries {
			if e := &entries[i]; q.Intersects(e.Rect) {
				out = append(out, wire.Item{Rect: e.Rect, Ref: e.Ref})
			}
		}
		return refs, out, nil
	}
	for i := range entries {
		if e := &entries[i]; q.Intersects(e.Rect) {
			refs = append(refs, Ref{Chunk: int(e.Ref), Level: n.Level - 1,
				Rank: q.OverlapArea(e.Rect), Covered: q.Contains(e.Rect)})
		}
	}
	return refs, out, nil
}
