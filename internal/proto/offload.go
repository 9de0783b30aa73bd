package proto

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/nodecache"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
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
// where the root lives, how many chunks the region has, and the node fan-out
// a chunk may decode to. The zero value means the transport has no one-sided
// view of the tree.
type Tree struct {
	RootChunk, NumChunks, MaxEntries int
}

// errStale signals that the traversal observed a structurally inconsistent
// node — a split or condense re-used the chunk under the reader — and must
// restart from the root.
var errStale = errors.New("catfish: stale node during offloaded traversal")

// nodeRef identifies a node awaiting traversal: its chunk and the level the
// parent says it should decode to (-1 for the root, whose level the client
// learns as the tree grows).
type nodeRef struct {
	id    int
	level int
}

// pending is what the traversal remembers about one in-flight read.
type pending struct {
	nodeRef
	tries    int
	verify   bool // a version-only revalidation read
	prefetch bool // speculative; not yet claimed by the traversal
}

// cand is one query-intersecting child ranked for speculation.
type cand struct {
	ref     int
	rect    geo.Rect
	overlap float64
}

// traversal is the state of the one offloaded traversal a Core runs at a
// time, kept across searches so a search allocates its result and what it
// adds to the caches, nothing else.
type traversal struct {
	// root is the last consistent root image (CacheRoot); rootVer the root
	// version last seen in the heartbeat, whose change ends the lease of
	// both root and the node cache.
	root    *rtree.Node
	rootVer uint64

	q      geo.Rect
	items  []wire.Item
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
	stack    []*rtree.Node // consistent nodes awaiting expansion
	refs     []nodeRef     // the root frontier; the single-issue walk's stack
	wave     []Read        // reads accumulated since the last Post
	cands    []cand        // rankChildren's scratch

	// node and payload are the decode buffers of the chunk last fetched,
	// nodeVer its region version; spec decodes speculative chunks, which
	// arrive while node's entries are still being walked.
	node    rtree.Node
	nodeVer uint64
	spec    rtree.Node
	payload []byte
}

// searchOffload traverses the server's R-tree from the client with one-sided
// reads (§III-B). Each fetched chunk is validated against its cacheline
// versions; a torn read is retried. A node whose level disagrees with the
// traversal's expectation indicates the structure changed under the reader;
// the whole search restarts from the root, bounded by MaxRestarts.
func (o Ops[T]) searchOffload(q geo.Rect) ([]wire.Item, error) {
	tr := &o.tr
	tr.q = q
	for attempt := 0; attempt <= o.cfg.MaxRestarts; attempt++ {
		var err error
		tr.items = nil
		o.syncLease()
		if o.cfg.MultiIssue {
			err = o.walkMultiIssue()
		} else {
			err = o.walkSingleIssue()
		}
		// Nothing to post: the last completion's bytes are done with.
		o.t.Post(nil) //nolint:errcheck // an empty wave cannot fail
		if err == nil {
			return tr.items, nil
		}
		if !errors.Is(err, errStale) {
			return nil, err
		}
		// The tree changed shape under us: drop the cached root and flush
		// the node cache — the stale entry's ancestors are unknown, so the
		// full flush conservatively covers them all.
		tr.root = nil
		o.cfg.Cache.Flush()
		o.Counters.StaleRestarts.Inc()
	}
	return nil, ErrGaveUp
}

// syncLease applies the heartbeat's root-version word to both client-side
// caches, on the goroutine that traverses: a changed root version drops the
// cached root and demotes every node-cache entry to the revalidation tier.
// The word is refreshed every heartbeat interval, so cache staleness is
// bounded by one heartbeat — lease-like semantics in the spirit of the Cell
// B-tree store the paper cites. Without server heartbeats the root cache
// has unbounded staleness; the node cache stays sound because its lease
// also expires on the clock (see nodecache).
func (o Ops[T]) syncLease() {
	if ver := o.t.RootVersion(); ver != o.tr.rootVer {
		o.tr.rootVer = ver
		o.tr.root = nil
		o.cfg.Cache.DemoteAll()
	}
}

// cachedRoot returns the cached root node when root caching is enabled,
// refreshing it with one validated read when absent (syncLease has already
// applied heartbeat invalidation).
func (o Ops[T]) cachedRoot() (*rtree.Node, error) {
	tr := &o.tr
	if !o.cfg.CacheRoot {
		return nil, nil
	}
	if tr.root != nil {
		o.Counters.RootCacheHits.Inc()
		// Examining the cached root costs the same decode/intersection work
		// as any other node visit; without this charge the cached-leaf-root
		// fast path would collect items at zero CPU cost, skewing sim
		// fairness against the uncached path (which pays in fetchChunk).
		o.t.Charge()
		return tr.root, nil
	}
	if err := o.fetchChunk(nodeRef{id: o.cfg.Tree.RootChunk, level: -1}); err != nil {
		return nil, err
	}
	root := cloneNode(&tr.node)
	// A leaf root is never invalidated by child-level mismatches (there are
	// no child reads), so growth would go unnoticed; serve it fresh but do
	// not retain it.
	if !root.IsLeaf() {
		tr.root = root
	}
	return root, nil
}

// rootFrontier resolves the start of a traversal into tr.refs, shared by the
// single-issue and multi-issue walks. With a usable cached root, its
// query-intersecting children form the initial frontier (a leaf root answers
// the query outright: items are collected and the frontier stays empty);
// otherwise the frontier is the root chunk itself, fetched by the traversal
// like any other node.
func (o Ops[T]) rootFrontier() error {
	tr := &o.tr
	tr.refs = tr.refs[:0]
	root, err := o.cachedRoot()
	switch {
	case err != nil:
		return err
	case root == nil:
		tr.refs = append(tr.refs, nodeRef{id: o.cfg.Tree.RootChunk, level: -1})
	case root.IsLeaf():
		tr.collectLeaf(root)
	default:
		tr.pushChildren(root)
	}
	return nil
}

// cloneNode copies a node out of a reused decode buffer.
func cloneNode(n *rtree.Node) *rtree.Node {
	return &rtree.Node{Level: n.Level, Entries: append([]rtree.Entry(nil), n.Entries...)}
}

// collectLeaf appends the leaf's query-matching entries to the result.
func (tr *traversal) collectLeaf(n *rtree.Node) {
	for _, e := range n.Entries {
		if tr.q.Intersects(e.Rect) {
			tr.items = append(tr.items, wire.Item{Rect: e.Rect, Ref: e.Ref})
		}
	}
}

// pushChildren appends n's query-intersecting children to tr.refs.
func (tr *traversal) pushChildren(n *rtree.Node) {
	for _, e := range n.Entries {
		if tr.q.Intersects(e.Rect) {
			tr.refs = append(tr.refs, nodeRef{id: int(e.Ref), level: n.Level - 1})
		}
	}
}

// pop takes one completion off the transport. A transport error means every
// outstanding read is gone with it: nothing is left to drain.
func (o Ops[T]) pop() (Done, error) {
	d, err := o.t.Pop()
	if err != nil {
		clear(o.tr.inflight)
	}
	return d, err
}

// readSync posts one read and waits for its completion: the single-issue
// walk's round trip, and the root-cache refresh of either walk (which runs
// before the multi-issue walk has queued anything in the wave).
func (o Ops[T]) readSync(chunk int, versions bool, retry int) (Done, error) {
	tr := &o.tr
	tr.tagSeq++
	tr.wave = append(tr.wave[:0], Read{Tag: tr.tagSeq, Chunk: chunk, Versions: versions, Retry: retry})
	_, wqes, err := o.t.Post(tr.wave)
	tr.wave = tr.wave[:0]
	o.Counters.ReadWQEs.Add(uint64(wqes))
	if err != nil {
		return Done{}, err
	}
	return o.pop()
}

// decode validates a raw chunk image against its cacheline versions and
// decodes it into node, asserting level when level >= 0. A torn image is
// region.ErrTornRead; a chunk that decodes as garbage — freed and reused —
// or at the wrong level is staleness, not corruption.
func (o Ops[T]) decode(raw []byte, node *rtree.Node, level int) (ver uint64, err error) {
	tr := &o.tr
	payload, ver, err := region.DecodeChunk(raw, tr.payload)
	if err != nil {
		return 0, err
	}
	tr.payload = payload
	if err := rtree.DecodeNode(payload, node, o.cfg.Tree.MaxEntries); err != nil {
		return 0, errStale
	}
	if level >= 0 && node.Level != level {
		return 0, errStale
	}
	return ver, nil
}

// fetchChunk reads r's chunk with validation and decodes it into tr.node,
// retrying torn reads up to the configured budget. The observed chunk
// version is left in tr.nodeVer for cache population.
func (o Ops[T]) fetchChunk(r nodeRef) error {
	tr := &o.tr
	for retry := 0; retry <= o.cfg.MaxChunkRetries; retry++ {
		o.Counters.NodesFetched.Inc()
		d, err := o.readSync(r.id, false, retry)
		if err == nil {
			err = d.Err
		}
		if err != nil {
			return fmt.Errorf("catfish: chunk %d read: %w", r.id, err)
		}
		ver, err := o.decode(d.Data, &tr.node, r.level)
		if errors.Is(err, region.ErrTornRead) {
			o.Counters.TornRetries.Inc()
			continue
		}
		if err != nil {
			return err
		}
		tr.nodeVer = ver
		o.t.Charge()
		return nil
	}
	return ErrGaveUp
}

// cachePut retains the node just decoded into tr.node when it is internal
// (leaves absorb every insert and would thrash the cache). The cache gets
// its own copy: tr.node's entry slice is a reused decode buffer.
func (o Ops[T]) cachePut(id int) {
	if o.cfg.Cache == nil || o.tr.node.IsLeaf() {
		return
	}
	o.cfg.Cache.Put(id, cloneNode(&o.tr.node), o.tr.nodeVer, o.t.Now())
}

// cached unwraps a node-cache value for r, evicting it as stale when its
// level is not the one r's parent promised.
func (o Ops[T]) cached(v any, r nodeRef) (*rtree.Node, error) {
	n := v.(*rtree.Node)
	if r.level >= 0 && n.Level != r.level {
		o.cfg.Cache.Evict(r.id)
		return nil, errStale
	}
	return n, nil
}

// lookupNode resolves one single-issue step through the node cache: a
// lease-fresh entry is served with zero network, a demoted entry is
// revalidated with a version-only read, and a miss (or failed revalidation)
// falls back to a full validated fetch that repopulates the cache. The
// returned node is valid until the next lookupNode call.
func (o Ops[T]) lookupNode(r nodeRef) (*rtree.Node, error) {
	cache := o.cfg.Cache
	v, out := cache.Lookup(r.id, o.t.Now())
	if out == nodecache.Verify {
		o.Counters.VersionReads.Inc()
		d, err := o.readSync(r.id, true, 0)
		if err != nil {
			return nil, err
		}
		// Fingerprint unreadable, torn or changed: fall through to a full
		// fetch.
		if ver, derr := region.DecodeVersions(d.Data); d.Err == nil && derr == nil {
			var ok bool
			if v, ok = cache.Confirm(r.id, ver, o.t.Now()); ok {
				out = nodecache.Fresh
			}
		}
	}
	if out == nodecache.Fresh {
		n, err := o.cached(v, r)
		if err == nil {
			o.t.Charge()
		}
		return n, err
	}
	if err := o.fetchChunk(r); err != nil {
		return nil, err
	}
	o.cachePut(r.id)
	return &o.tr.node, nil
}

// walkSingleIssue is the FaRM-style baseline: a depth-first walk fetching
// one node per read round trip (cache hits skip the trip).
func (o Ops[T]) walkSingleIssue() error {
	tr := &o.tr
	if err := o.rootFrontier(); err != nil {
		return err
	}
	for len(tr.refs) > 0 {
		r := tr.refs[len(tr.refs)-1]
		tr.refs = tr.refs[:len(tr.refs)-1]
		n, err := o.lookupNode(r)
		if err != nil {
			return err
		}
		if n.IsLeaf() {
			tr.collectLeaf(n)
		} else {
			tr.pushChildren(n)
		}
	}
	return nil
}

// walkMultiIssue implements §IV-C: after checking a node, reads for all
// intersecting children are posted at once; completions are processed as
// they arrive, so the round trips of independent subtrees overlap in a
// pipeline. Cache-fresh children are expanded immediately without touching
// the network; demoted entries revalidate with pipelined version-only reads,
// and only misses cost a full read.
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
//     expands, its most query-overlapping children get reads posted for the
//     chunks directly behind them (preorder layout puts a child's own
//     children exactly there), bounded by the utilization-gated token
//     bucket. A later visit of a chunk whose speculative read is still in
//     flight adopts it — re-labelling it as a demand read — instead of
//     posting a duplicate; completions nobody adopted park internal nodes in
//     the node cache and count leaves/garbage as prefetch waste.
func (o Ops[T]) walkMultiIssue() error {
	tr := &o.tr
	tr.stack = tr.stack[:0]

	if err := o.rootFrontier(); err != nil {
		return o.fail(err)
	}
	for _, r := range tr.refs {
		if err := o.visit(r); err != nil {
			return o.fail(err)
		}
	}
	for {
		for len(tr.stack) > 0 {
			n := tr.stack[len(tr.stack)-1]
			tr.stack = tr.stack[:len(tr.stack)-1]
			if err := o.expand(n); err != nil {
				return o.fail(err)
			}
		}
		// Post the whole wave — full fetches, revalidations, and
		// speculative reads alike — as one submission.
		if err := o.flush(); err != nil {
			return o.fail(err)
		}
		if len(tr.inflight) == 0 {
			break
		}
		comp, err := o.pop()
		if err != nil {
			return o.fail(err)
		}
		ctx, ok := tr.inflight[comp.Tag]
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
func (o Ops[T]) complete(comp Done, ctx pending) error {
	tr := &o.tr
	delete(tr.inflight, comp.Tag)
	if !ctx.verify && tr.chunkTag[ctx.id] == comp.Tag {
		delete(tr.chunkTag, ctx.id)
	}
	if ctx.prefetch {
		// Speculation never fails the search. With merging on, the wave sort
		// can deliver a speculative chunk before the revalidation that
		// hinted it, so completed bytes are parked for same-traversal
		// adoption by visit; whatever is left when the traversal ends is
		// absorbed into the cache or written off.
		if comp.Err != nil {
			o.Counters.PrefetchWaste.Inc()
		} else {
			tr.spare[ctx.id] = append([]byte(nil), comp.Data...)
		}
		return nil
	}
	if comp.Err != nil {
		return fmt.Errorf("catfish: chunk %d read: %w", ctx.id, comp.Err)
	}
	r := ctx.nodeRef
	if ctx.verify {
		if ver, derr := region.DecodeVersions(comp.Data); derr == nil {
			if v, ok := o.cfg.Cache.Confirm(ctx.id, ver, o.t.Now()); ok {
				n, err := o.cached(v, r)
				if err == nil {
					tr.stack = append(tr.stack, n)
				}
				return err
			}
		}
		// Fingerprint torn or changed: pay for the full read.
		o.issue(pending{nodeRef: r})
		return nil
	}
	ver, err := o.decode(comp.Data, &tr.node, ctx.level)
	if errors.Is(err, region.ErrTornRead) {
		o.Counters.TornRetries.Inc()
		if ctx.tries >= o.cfg.MaxChunkRetries {
			return ErrGaveUp
		}
		o.issue(pending{nodeRef: r, tries: ctx.tries + 1})
		return nil
	}
	if err != nil {
		return err
	}
	tr.nodeVer = ver
	o.cachePut(ctx.id)
	return o.expand(&tr.node)
}

// issue tags pd's read — demand, speculative or version-only — counts it and
// adds it to the wave.
func (o Ops[T]) issue(pd pending) {
	tr := &o.tr
	tr.tagSeq++
	tr.inflight[tr.tagSeq] = pd
	switch {
	case pd.verify:
		o.Counters.VersionReads.Inc()
	case pd.prefetch:
		o.Counters.PrefetchIssued.Inc()
		tr.chunkTag[pd.id] = tr.tagSeq
	default:
		o.Counters.NodesFetched.Inc()
		tr.chunkTag[pd.id] = tr.tagSeq
	}
	tr.wave = append(tr.wave, Read{Tag: tr.tagSeq, Chunk: pd.id, Versions: pd.verify, Retry: pd.tries})
}

// flush posts the accumulated wave as one submission. When merging is on,
// the wave is first sorted so adjacent chunks sit next to each other — the
// transport only coalesces consecutive reads. With merging off the wave
// posts in issue order.
func (o Ops[T]) flush() error {
	tr := &o.tr
	if len(tr.wave) == 0 {
		return nil
	}
	if o.cfg.MergeSpan > 1 {
		slices.SortFunc(tr.wave, func(a, b Read) int {
			if a.Versions != b.Versions { // full-chunk reads first
				if b.Versions {
					return -1
				}
				return 1
			}
			return cmp.Compare(a.Chunk, b.Chunk)
		})
	}
	posted, wqes, err := o.t.Post(tr.wave)
	o.Counters.ReadWQEs.Add(uint64(wqes))
	if err != nil {
		// The unposted suffix will never complete: drop its tracking now so
		// fail's drain terminates instead of waiting for completions that
		// cannot arrive.
		tr.forget(tr.wave[posted:])
	}
	tr.wave = tr.wave[:0]
	return err
}

// forget drops the tracking of reads that were never posted.
func (tr *traversal) forget(unposted []Read) {
	for _, r := range unposted {
		if !r.Versions && tr.chunkTag[r.Chunk] == r.Tag {
			delete(tr.chunkTag, r.Chunk)
		}
		delete(tr.inflight, r.Tag)
	}
}

// fail ends a multi-issue walk with err. Every outstanding completion is
// drained first so a restart (or the next search) starts with nothing in
// flight; wave entries never posted are dropped, since no completion will
// ever arrive for them.
func (o Ops[T]) fail(err error) error {
	tr := &o.tr
	tr.forget(tr.wave)
	tr.wave = tr.wave[:0]
	for len(tr.inflight) > 0 {
		comp, perr := o.pop()
		if perr != nil {
			break
		}
		if tr.inflight[comp.Tag].prefetch {
			o.Counters.PrefetchWaste.Inc()
		}
		delete(tr.inflight, comp.Tag)
	}
	clear(tr.chunkTag)
	o.absorbSpare()
	return err
}

// visit dispatches one child: a parked or in-flight speculative read for the
// chunk is adopted as the demand read, cache-fresh nodes expand locally via
// the stack, demoted entries post a version-only read (with the cached
// entries as prefetch hints), and misses post a full read.
func (o Ops[T]) visit(r nodeRef) error {
	tr := &o.tr
	if raw, ok := tr.spare[r.id]; ok {
		delete(tr.spare, r.id)
		if n := o.adoptSpare(r, raw); n != nil {
			tr.stack = append(tr.stack, n)
			return nil
		}
		// Torn or mismatched speculation: fall through to the demand path,
		// which re-reads and restarts on genuine staleness.
	}
	if tag, ok := tr.chunkTag[r.id]; ok {
		if pd := tr.inflight[tag]; pd.prefetch {
			pd.prefetch = false
			pd.level = r.level
			tr.inflight[tag] = pd
			o.Counters.PrefetchHits.Inc()
		}
		return nil // already being fetched
	}
	switch v, out := o.cfg.Cache.Lookup(r.id, o.t.Now()); out {
	case nodecache.Fresh:
		n, err := o.cached(v, r)
		if err == nil {
			tr.stack = append(tr.stack, n)
		}
		return err
	case nodecache.Verify:
		o.issue(pending{nodeRef: r, verify: true})
		o.hintSpans(v.(*rtree.Node))
		return nil
	}
	o.issue(pending{nodeRef: r})
	return nil
}

// expand examines one consistent node: leaf entries fold into the result
// set, internal entries are dispatched.
func (o Ops[T]) expand(n *rtree.Node) error {
	o.t.Charge()
	if n.IsLeaf() {
		o.tr.collectLeaf(n)
		return nil
	}
	for _, e := range n.Entries {
		if o.tr.q.Intersects(e.Rect) {
			if err := o.visit(nodeRef{id: int(e.Ref), level: n.Level - 1}); err != nil {
				return err
			}
		}
	}
	o.prefetchSpans(n)
	return nil
}

// rankChildren returns n's query-intersecting children, largest overlap
// first: the biggest overlap is the subtree most likely to be traversed
// entirely, so its chunks repay speculation best.
func (tr *traversal) rankChildren(n *rtree.Node) []cand {
	tr.cands = tr.cands[:0]
	for _, e := range n.Entries {
		if tr.q.Intersects(e.Rect) {
			tr.cands = append(tr.cands, cand{ref: int(e.Ref), rect: e.Rect, overlap: tr.q.OverlapArea(e.Rect)})
		}
	}
	slices.SortFunc(tr.cands, func(a, b cand) int { return cmp.Compare(b.overlap, a.overlap) })
	return tr.cands
}

// specBudget is how many speculative reads the expansion of n may post: none
// with prefetching off or below minLevel, else what the token bucket allows.
func (o Ops[T]) specBudget(n *rtree.Node, minLevel int) int {
	if o.cfg.Prefetch <= 0 || n.Level < minLevel {
		return 0
	}
	return o.PrefetchBudget()
}

// speculable reports whether chunk id is worth a speculative read: not
// already being fetched, not already cached.
func (o Ops[T]) speculable(id int) bool {
	if _, busy := o.tr.chunkTag[id]; busy {
		return false
	}
	return !o.cfg.Cache.Peek(id)
}

// hintSpans posts targeted speculative reads for the children of a
// cache-demoted node that is being revalidated: the (possibly stale) cached
// copy's entries say exactly which chunks the next wave will demand if the
// fingerprint confirms, so those reads ride the same wave as the version
// read instead of waiting a full round trip behind it. A failed confirm
// leaves them as bounded waste — the demand path re-reads from scratch, so
// correctness never leans on the hint.
func (o Ops[T]) hintSpans(n *rtree.Node) {
	budget := o.specBudget(n, 1)
	if budget <= 0 {
		return
	}
	spent := 0
	for _, cd := range o.tr.rankChildren(n) {
		if spent >= budget {
			break
		}
		if cd.ref < o.cfg.Tree.NumChunks && o.speculable(cd.ref) {
			o.issue(pending{nodeRef: nodeRef{id: cd.ref, level: -1}, prefetch: true})
			spent++
		}
	}
	o.SpendPrefetch(spent)
}

// prefetchSpans posts speculative reads behind n's most promising children.
// Under the preorder layout a child at chunk r keeps its own children at
// r+1, r+2, ...; a span of those merges with the demand read of r itself
// into one read when sorting brings them together.
func (o Ops[T]) prefetchSpans(n *rtree.Node) {
	budget := o.specBudget(n, 2)
	if budget <= 0 {
		return
	}
	spanK := 2
	if o.cfg.MergeSpan > 1 {
		spanK = o.cfg.MergeSpan - 1
	}
	spent := 0
rank:
	for _, cd := range o.tr.rankChildren(n) {
		// Speculation rides a demand read: a span is only posted behind a
		// child whose own chunk is being fetched in full this wave, so the
		// pre-post sort lands the span directly after that read and the
		// transport folds both into one. A cache-served child is skipped —
		// speculating behind it would post a read of its own for chunks the
		// next wave will demand (and merge) anyway.
		if _, busy := o.tr.chunkTag[cd.ref]; !busy {
			continue
		}
		// Only span behind a child the query CONTAINS: containment means
		// every descendant intersects, so under the preorder layout the
		// chunks right after the child are all wanted — speculation with
		// guaranteed adoption. A partially-overlapped child would gamble on
		// which of its leaves the query clips.
		if !o.tr.q.Contains(cd.rect) {
			continue
		}
		for d := 1; d <= spanK; d++ {
			if spent >= budget {
				break rank
			}
			id := cd.ref + d
			if id >= o.cfg.Tree.NumChunks {
				break
			}
			if o.speculable(id) {
				o.issue(pending{nodeRef: nodeRef{id: id, level: -1}, prefetch: true})
				spent++
			}
		}
	}
	o.SpendPrefetch(spent)
}

// adoptSpare turns the parked bytes of a completed speculative read into
// the node a demand visit asked for, skipping the read that visit would
// otherwise post. Torn chunks, garbage, and level mismatches return nil
// (counted as waste) and the caller falls back to the demand path —
// speculation never surfaces errStale itself. Adopted internal nodes enter
// the cache demand-attributed: they are being used right now.
func (o Ops[T]) adoptSpare(r nodeRef, raw []byte) *rtree.Node {
	ver, err := o.decode(raw, &o.tr.spec, r.level)
	if err != nil {
		o.Counters.PrefetchWaste.Inc()
		return nil
	}
	o.Counters.PrefetchHits.Inc()
	n := cloneNode(&o.tr.spec)
	if !n.IsLeaf() {
		o.cfg.Cache.Put(r.id, n, ver, o.t.Now())
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
func (o Ops[T]) absorbSpare() {
	tr := &o.tr
	if len(tr.spare) == 0 {
		return
	}
	tr.spareIDs = tr.spareIDs[:0]
	for id := range tr.spare {
		tr.spareIDs = append(tr.spareIDs, id)
	}
	slices.Sort(tr.spareIDs)
	for _, id := range tr.spareIDs {
		ver, err := o.decode(tr.spare[id], &tr.spec, -1)
		if err != nil || tr.spec.IsLeaf() || o.cfg.Cache == nil {
			o.Counters.PrefetchWaste.Inc()
			continue
		}
		o.cfg.Cache.PutPrefetched(id, cloneNode(&tr.spec), ver, o.t.Now())
	}
	clear(tr.spare)
}
