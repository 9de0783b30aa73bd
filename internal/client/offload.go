package client

import (
	"errors"
	"fmt"
	"sort"

	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/nodecache"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// searchOffload traverses the server's R-tree from the client with
// one-sided RDMA Reads (§III-B). Each fetched chunk is validated against
// its cacheline versions; a torn read is retried. A node whose level
// disagrees with the traversal's expectation indicates the structure
// changed under the reader (split/condense re-used the chunk); the whole
// search restarts from the root, bounded by MaxRestarts.
func (c *Client) searchOffload(p *sim.Proc, q geo.Rect) ([]wire.Item, error) {
	for attempt := 0; attempt <= c.cfg.MaxRestarts; attempt++ {
		var (
			items []wire.Item
			err   error
		)
		if c.cfg.MultiIssue {
			items, err = c.traverseMultiIssue(p, q)
		} else {
			items, err = c.traverseSingleIssue(p, q)
		}
		if err == nil {
			return items, nil
		}
		if !errors.Is(err, errStale) {
			return nil, err
		}
		// The tree changed shape under us: drop the cached root and flush
		// the node cache — the stale entry's ancestors are unknown, so the
		// full flush conservatively covers them all.
		c.rootCache = nil
		c.ncache.Flush()
		c.Counters.StaleRestarts.Inc()
	}
	return nil, ErrGaveUp
}

// syncLease applies the heartbeat mailbox's root-version word to both
// client-side caches: a changed root version drops the cached root and
// demotes every node-cache entry to the revalidation tier. The word is
// refreshed every heartbeat interval, so cache staleness is bounded by
// one heartbeat — lease-like semantics in the spirit of the Cell B-tree
// store the paper cites. Without server heartbeats the root cache has
// unbounded staleness; the node cache stays sound because its lease also
// expires on the clock (see nodecache).
func (c *Client) syncLease() {
	if ver := c.heartbeatRootVersion(); ver != c.rootVerSeen {
		c.rootVerSeen = ver
		c.rootCache = nil
		c.ncache.DemoteAll()
	}
}

// cachedRoot returns the cached root node when root caching is enabled,
// refreshing it with one validated read when absent (syncLease has
// already applied heartbeat invalidation).
func (c *Client) cachedRoot(p *sim.Proc) (*rtree.Node, error) {
	if !c.cfg.CacheRoot {
		return nil, nil
	}
	if c.rootCache != nil {
		c.Counters.RootCacheHits.Inc()
		// Examining the cached root costs the same decode/intersection work
		// as any other node visit; without this charge the cached-leaf-root
		// fast path would collect items at zero CPU cost, skewing sim
		// fairness against the uncached path (which pays in fetchChunk).
		c.chargeTraversal(p)
		return c.rootCache, nil
	}
	if err := c.fetchChunk(p, c.ep.RootChunk, -1); err != nil {
		return nil, err
	}
	root := &rtree.Node{
		Level:   c.node.Level,
		Entries: append([]rtree.Entry(nil), c.node.Entries...),
	}
	// A leaf root is never invalidated by child-level mismatches (there
	// are no child reads), so growth would go unnoticed; serve it fresh
	// but do not retain it.
	if !root.IsLeaf() {
		c.rootCache = root
	}
	return root, nil
}

// nodeRef identifies a node awaiting traversal: its chunk and the level
// the parent says it should decode to (-1 for the root, whose level the
// client learns as the tree grows).
type nodeRef struct {
	id    int
	level int
}

// rootFrontier resolves the start of an offloaded traversal, shared by the
// single-issue and multi-issue paths. With a usable cached root, its
// query-intersecting children form the initial frontier (a leaf root
// answers the query outright: items are collected and the frontier stays
// empty); otherwise the frontier is the root chunk itself, fetched by the
// traversal like any other node.
func (c *Client) rootFrontier(p *sim.Proc, q geo.Rect) ([]wire.Item, []nodeRef, error) {
	root, err := c.cachedRoot(p)
	if err != nil {
		return nil, nil, err
	}
	if root == nil {
		return nil, []nodeRef{{id: c.ep.RootChunk, level: -1}}, nil
	}
	if root.IsLeaf() {
		return collectLeaf(root, q, nil), nil, nil
	}
	var frontier []nodeRef
	for _, e := range root.Entries {
		if q.Intersects(e.Rect) {
			frontier = append(frontier, nodeRef{id: int(e.Ref), level: root.Level - 1})
		}
	}
	return nil, frontier, nil
}

// collectLeaf appends the leaf's query-matching entries to items.
func collectLeaf(n *rtree.Node, q geo.Rect, items []wire.Item) []wire.Item {
	for _, e := range n.Entries {
		if q.Intersects(e.Rect) {
			items = append(items, wire.Item{Rect: e.Rect, Ref: e.Ref})
		}
	}
	return items
}

// errStale signals that the traversal observed a structurally inconsistent
// node and must restart from the root.
var errStale = errors.New("client: stale node during offloaded traversal")

// chargeTraversal accounts the client-side work of examining one node
// (decode + intersection checks).
func (c *Client) chargeTraversal(p *sim.Proc) {
	if cpu := c.cfg.Host.CPU(); cpu != nil {
		cpu.Run(p, c.cfg.Cost.ClientTraversalDemand(1))
	}
}

// fetchChunk reads chunk id with validation and decodes it into c.node,
// retrying torn reads up to the configured budget. expectLevel >= 0 asserts
// the node's level (-1 skips the check, used for the root whose level the
// client learns as the tree grows). The observed chunk version is left in
// c.nodeVer for cache population.
func (c *Client) fetchChunk(p *sim.Proc, id int, expectLevel int) error {
	qp := c.ep.DataQP
	for retry := 0; retry <= c.cfg.MaxChunkRetries; retry++ {
		c.Counters.NodesFetched.Inc()
		c.Counters.ReadWQEs.Inc()
		raw, err := qp.ReadSync(p, c.ep.RegionMem, c.ep.RegionMem.ChunkOffset(id), c.ep.ChunkSize)
		if err != nil {
			return fmt.Errorf("client: chunk %d read: %w", id, err)
		}
		payload, ver, derr := region.DecodeChunk(raw, c.payload)
		if derr != nil {
			if errors.Is(derr, region.ErrTornRead) {
				c.Counters.TornRetries.Inc()
				continue
			}
			return derr
		}
		c.payload = payload
		if err := rtree.DecodeNode(payload, &c.node, c.ep.MaxEntries); err != nil {
			// A freed-and-reused chunk can decode as garbage; treat it as
			// staleness rather than corruption.
			return errStale
		}
		if expectLevel >= 0 && c.node.Level != expectLevel {
			return errStale
		}
		c.nodeVer = ver
		c.chargeTraversal(p)
		return nil
	}
	return ErrGaveUp
}

// readVersions performs a version-only read of chunk id (an eighth of a
// full chunk for the default geometry) and returns its fingerprint, or
// region.ErrTornRead when a writer is mid-publish.
func (c *Client) readVersions(p *sim.Proc, id int) (uint64, error) {
	c.Counters.VersionReads.Inc()
	c.Counters.ReadWQEs.Inc()
	rv := c.ep.RegionVers
	raw, err := c.ep.DataQP.ReadSync(p, rv, rv.VersionsOffset(id), rv.VersionsSize())
	if err != nil {
		return 0, err
	}
	return region.DecodeVersions(raw)
}

// cachePut retains the node just decoded into c.node when it is internal
// (leaves absorb every insert and would thrash the cache). The cache gets
// its own copy: c.node's entry slice is a reused decode buffer.
func (c *Client) cachePut(p *sim.Proc, id int) {
	if c.ncache == nil || c.node.IsLeaf() {
		return
	}
	n := &rtree.Node{
		Level:   c.node.Level,
		Entries: append([]rtree.Entry(nil), c.node.Entries...),
	}
	c.ncache.Put(id, n, c.nodeVer, p.Now())
}

// lookupNode resolves one traversal step through the node cache: a
// lease-fresh entry is served with zero network, a demoted entry is
// revalidated with a version-only read, and a miss (or failed
// revalidation) falls back to a full validated fetch that repopulates the
// cache. The returned node is valid until the next lookupNode call.
func (c *Client) lookupNode(p *sim.Proc, r nodeRef) (*rtree.Node, error) {
	if c.ncache != nil {
		switch v, out := c.ncache.Lookup(r.id, p.Now()); out {
		case nodecache.Fresh:
			n := v.(*rtree.Node)
			if r.level >= 0 && n.Level != r.level {
				c.ncache.Evict(r.id)
				return nil, errStale
			}
			c.chargeTraversal(p)
			return n, nil
		case nodecache.Verify:
			if ver, err := c.readVersions(p, r.id); err == nil {
				if v, ok := c.ncache.Confirm(r.id, ver, p.Now()); ok {
					n := v.(*rtree.Node)
					if r.level >= 0 && n.Level != r.level {
						c.ncache.Evict(r.id)
						return nil, errStale
					}
					c.chargeTraversal(p)
					return n, nil
				}
			}
			// Fingerprint torn or changed: fall through to a full fetch.
		}
	}
	if err := c.fetchChunk(p, r.id, r.level); err != nil {
		return nil, err
	}
	c.cachePut(p, r.id)
	return &c.node, nil
}

// traverseSingleIssue is the FaRM-style baseline: a depth-first walk
// fetching one node per RDMA Read round trip (cache hits skip the trip).
func (c *Client) traverseSingleIssue(p *sim.Proc, q geo.Rect) ([]wire.Item, error) {
	c.syncLease()
	items, stack, err := c.rootFrontier(p, q)
	if err != nil {
		return nil, err
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := c.lookupNode(p, r)
		if err != nil {
			return nil, err
		}
		if n.IsLeaf() {
			items = collectLeaf(n, q, items)
			continue
		}
		for _, e := range n.Entries {
			if q.Intersects(e.Rect) {
				stack = append(stack, nodeRef{id: int(e.Ref), level: n.Level - 1})
			}
		}
	}
	return items, nil
}

// traverseMultiIssue implements §IV-C: after checking a node, RDMA Reads
// for all intersecting children are posted at once; completions are
// processed as they arrive, so the round trips of independent subtrees
// overlap in a pipeline. The send-queue depth of the data QP bounds the
// number of outstanding reads. Cache-fresh children are expanded
// immediately without touching the network; demoted entries revalidate
// with pipelined version-only reads, and only misses cost a full read.
//
// Reads are accumulated per expansion wave and posted as ONE doorbell
// batch (fabric.ReadBatch): the full child fetches and the version-only
// revalidation reads of a traversal level share a single SQ submission,
// so the batch pays one doorbell/setup cost plus per-read wire cost
// instead of per-message NIC overhead on every child.
//
// Two further read-path optimizations ride on the batch (DESIGN.md §5.9):
//
//   - Merged adjacent reads: when the fabric's MergeSpan exceeds 1, the
//     wave is sorted by (source, offset) before posting, so reads of
//     physically-adjacent chunks — which the STR bulk loader's preorder
//     layout makes the common case for sibling leaves — coalesce into a
//     single larger RDMA Read inside ReadBatch.
//   - Speculative grandchild prefetch: while an internal node at level >= 2
//     expands, its most query-overlapping children get span reads posted
//     for the chunks directly behind them (preorder layout puts a child's
//     own children exactly there), bounded by the utilization-gated token
//     bucket. A later visit() of a chunk whose speculative read is still
//     in flight adopts it — re-labelling it as a demand read — instead of
//     posting a duplicate; completions nobody adopted park internal nodes
//     in the node cache and count leaves/garbage as prefetch waste.
func (c *Client) traverseMultiIssue(p *sim.Proc, q geo.Rect) ([]wire.Item, error) {
	c.syncLease()
	type pending struct {
		id       int
		level    int
		tries    int
		verify   bool // a version-only revalidation read
		prefetch bool // speculative; not yet claimed by the traversal
	}
	qp := c.ep.DataQP
	mergeSpan := qp.Profile().MergeSpan
	inflight := make(map[uint64]pending)
	// chunkTag tracks the in-flight full-chunk read (demand or speculative)
	// per chunk id, for duplicate suppression and prefetch adoption.
	chunkTag := make(map[int]uint64)
	// spare holds speculative chunks that completed before any demand visit
	// claimed them: with merging on, the pre-post sort can deliver a
	// speculative read ahead of the revalidation that hinted it, so bytes
	// are parked here for same-traversal adoption instead of being written
	// off on arrival. Leftovers are absorbed when the traversal ends.
	var spare map[int][]byte
	var stack []*rtree.Node // cache-served nodes awaiting expansion
	batch := c.readBatch[:0]
	// absorbSpare drains the unadopted speculative chunks in deterministic
	// order (map iteration order must not leak into cache state).
	absorbSpare := func() {
		if len(spare) == 0 {
			return
		}
		ids := make([]int, 0, len(spare))
		for id := range spare {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			c.absorbPrefetch(p, id, spare[id])
		}
		spare = nil
	}

	issue := func(id, level, tries int) {
		c.tagSeq++
		inflight[c.tagSeq] = pending{id: id, level: level, tries: tries}
		chunkTag[id] = c.tagSeq
		c.Counters.NodesFetched.Inc()
		batch = append(batch, fabric.ReadReq{
			Src: c.ep.RegionMem, Off: c.ep.RegionMem.ChunkOffset(id),
			Size: c.ep.ChunkSize, Tag: c.tagSeq,
		})
	}
	issueSpec := func(id int) {
		c.tagSeq++
		inflight[c.tagSeq] = pending{id: id, level: -1, prefetch: true}
		chunkTag[id] = c.tagSeq
		c.Counters.PrefetchIssued.Inc()
		batch = append(batch, fabric.ReadReq{
			Src: c.ep.RegionMem, Off: c.ep.RegionMem.ChunkOffset(id),
			Size: c.ep.ChunkSize, Tag: c.tagSeq,
		})
	}
	issueVerify := func(id, level int) {
		c.tagSeq++
		inflight[c.tagSeq] = pending{id: id, level: level, verify: true}
		c.Counters.VersionReads.Inc()
		rv := c.ep.RegionVers
		batch = append(batch, fabric.ReadReq{
			Src: rv, Off: rv.VersionsOffset(id), Size: rv.VersionsSize(), Tag: c.tagSeq,
		})
	}
	// flushReads posts the accumulated wave as one doorbell batch. When
	// merging is on, the wave is first sorted by (source, offset) so
	// adjacent chunks sit next to each other in the submission — ReadBatch
	// only coalesces consecutive requests. With merging off the wave posts
	// in issue order, bit-for-bit identical to the pre-merge client.
	flushReads := func() error {
		if len(batch) == 0 {
			return nil
		}
		if mergeSpan > 1 {
			sort.Slice(batch, func(i, j int) bool {
				if batch[i].Src != batch[j].Src {
					return batch[i].Src == fabric.Readable(c.ep.RegionMem)
				}
				return batch[i].Off < batch[j].Off
			})
		}
		posted, wqes, err := qp.ReadBatch(p, batch)
		c.Counters.ReadWQEs.Add(uint64(wqes))
		if err != nil {
			// The unposted suffix will never complete: drop its tracking
			// now so fail()'s CQ drain terminates instead of waiting for
			// completions that cannot arrive.
			for _, r := range batch[posted:] {
				if pd, ok := inflight[r.Tag]; ok && !pd.verify && chunkTag[pd.id] == r.Tag {
					delete(chunkTag, pd.id)
				}
				delete(inflight, r.Tag)
			}
		}
		batch = batch[:0]
		return err
	}
	// Drain every outstanding completion before returning so a restart (or
	// the next search) starts with an empty CQ. Unposted batch entries are
	// dropped first: no completion will ever arrive for them.
	fail := func(err error) ([]wire.Item, error) {
		for _, r := range batch {
			delete(inflight, r.Tag)
		}
		batch = batch[:0]
		for len(inflight) > 0 {
			comp := qp.CQ().Pop(p)
			if pd, ok := inflight[comp.Tag]; ok && pd.prefetch {
				c.Counters.PrefetchWaste.Inc()
			}
			delete(inflight, comp.Tag)
		}
		absorbSpare()
		c.readBatch = batch
		return nil, err
	}

	items, frontier, err := c.rootFrontier(p, q)
	if err != nil {
		return fail(err)
	}

	// rankChildren returns n's query-intersecting child refs, largest
	// overlap first: the biggest overlap is the subtree most likely to be
	// traversed entirely, so its chunks repay speculation best.
	type cand struct {
		ref     int
		rect    geo.Rect
		overlap float64
	}
	var cands []cand // reused scratch
	rankChildren := func(n *rtree.Node) []cand {
		cands = cands[:0]
		for _, e := range n.Entries {
			if q.Intersects(e.Rect) {
				cands = append(cands, cand{ref: int(e.Ref), rect: e.Rect, overlap: q.OverlapArea(e.Rect)})
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].overlap > cands[j].overlap })
		return cands
	}
	numChunks := c.ep.RegionMem.Region().NumChunks()
	// hintSpans posts targeted speculative reads for the children of a
	// cache-demoted node that is being revalidated: the (possibly stale)
	// cached copy's entries say exactly which chunks the next wave will
	// demand if the fingerprint confirms, so those reads ride the same
	// doorbell batch as the version read instead of waiting a full round
	// trip behind it. A failed confirm leaves them as bounded waste — the
	// demand path re-reads from scratch, so correctness never leans on the
	// hint.
	hintSpans := func(n *rtree.Node) {
		if c.cfg.Prefetch <= 0 || n.IsLeaf() {
			return
		}
		budget := c.On(p).PrefetchBudget()
		if budget <= 0 {
			return
		}
		spent := 0
		for _, cd := range rankChildren(n) {
			if spent >= budget {
				break
			}
			if cd.ref >= numChunks {
				continue
			}
			if _, busy := chunkTag[cd.ref]; busy {
				continue
			}
			if c.ncache.Peek(cd.ref) {
				continue
			}
			issueSpec(cd.ref)
			spent++
		}
		c.SpendPrefetch(spent)
	}

	// visit dispatches one child: an in-flight speculative read for the
	// chunk is adopted as the demand read, cache-fresh nodes expand locally
	// via the stack, demoted entries post a version-only read (with the
	// cached entries as prefetch hints), and misses post a full read.
	visit := func(r nodeRef) error {
		if raw, ok := spare[r.id]; ok {
			delete(spare, r.id)
			if n := c.adoptSpare(p, r.id, r.level, raw); n != nil {
				stack = append(stack, n)
				return nil
			}
			// Torn or mismatched speculation: fall through to the demand
			// path, which re-reads and restarts on genuine staleness.
		}
		if tag, ok := chunkTag[r.id]; ok {
			if pd := inflight[tag]; pd.prefetch {
				pd.prefetch = false
				pd.level = r.level
				inflight[tag] = pd
				c.Counters.PrefetchHits.Inc()
			}
			return nil // already being fetched
		}
		if c.ncache != nil {
			switch v, out := c.ncache.Lookup(r.id, p.Now()); out {
			case nodecache.Fresh:
				n := v.(*rtree.Node)
				if r.level >= 0 && n.Level != r.level {
					c.ncache.Evict(r.id)
					return errStale
				}
				stack = append(stack, n)
				return nil
			case nodecache.Verify:
				issueVerify(r.id, r.level)
				hintSpans(v.(*rtree.Node))
				return nil
			}
		}
		issue(r.id, r.level, 0)
		return nil
	}
	// prefetchSpans posts speculative reads behind n's most promising
	// children. Under the preorder layout a child at chunk r keeps its own
	// children at r+1, r+2, ...; a span of those merges with the demand
	// read of r itself into one WQE when sorting brings them together.
	spanK := 2
	if mergeSpan > 1 {
		spanK = mergeSpan - 1
	}
	prefetchSpans := func(n *rtree.Node) {
		if c.cfg.Prefetch <= 0 || n.Level < 2 {
			return
		}
		budget := c.On(p).PrefetchBudget()
		if budget <= 0 {
			return
		}
		spent := 0
	rank:
		for _, cd := range rankChildren(n) {
			// Speculation rides a demand read: a span is only posted behind a
			// child whose own chunk is being fetched in full this wave, so
			// the pre-post sort lands the span directly after that read and
			// ReadBatch folds both into one WQE. A cache-served child is
			// skipped — speculating behind it would post a WQE of its own
			// for chunks the next wave will demand (and merge) anyway.
			if _, busy := chunkTag[cd.ref]; !busy {
				continue
			}
			// Only span behind a child the query CONTAINS: containment
			// means every descendant intersects, so under the preorder
			// layout the chunks right after the child are all wanted —
			// speculation with guaranteed adoption. A partially-overlapped
			// child would gamble on which of its leaves the query clips.
			if !q.Contains(cd.rect) {
				continue
			}
			for d := 1; d <= spanK; d++ {
				if spent >= budget {
					break rank
				}
				id := cd.ref + d
				if id >= numChunks {
					break
				}
				if _, busy := chunkTag[id]; busy {
					continue
				}
				if c.ncache.Peek(id) {
					continue
				}
				issueSpec(id)
				spent++
			}
		}
		c.SpendPrefetch(spent)
	}
	// expand examines one consistent node: leaf entries fold into the
	// result set, internal entries are dispatched.
	expand := func(n *rtree.Node) error {
		c.chargeTraversal(p)
		if n.IsLeaf() {
			items = collectLeaf(n, q, items)
			return nil
		}
		for _, e := range n.Entries {
			if q.Intersects(e.Rect) {
				if err := visit(nodeRef{id: int(e.Ref), level: n.Level - 1}); err != nil {
					return err
				}
			}
		}
		prefetchSpans(n)
		return nil
	}

	for _, r := range frontier {
		if err := visit(r); err != nil {
			return fail(err)
		}
	}
	for {
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if err := expand(n); err != nil {
				return fail(err)
			}
		}
		// Post the whole wave — full fetches, revalidations, and
		// speculative spans alike — as one doorbell-batched submission.
		if err := flushReads(); err != nil {
			return fail(err)
		}
		if len(inflight) == 0 {
			break
		}
		comp := qp.CQ().Pop(p)
		ctx, ok := inflight[comp.Tag]
		if !ok {
			continue // completion from an abandoned traversal
		}
		delete(inflight, comp.Tag)
		if !ctx.verify && chunkTag[ctx.id] == comp.Tag {
			delete(chunkTag, ctx.id)
		}
		if ctx.prefetch {
			// Speculation never fails the search. With merging on, the
			// batch sort can deliver a speculative chunk before the
			// revalidation that hinted it, so completed bytes are parked
			// for same-traversal adoption by visit; whatever is left when
			// the traversal ends is absorbed into the cache or written off.
			if comp.Err != nil {
				c.Counters.PrefetchWaste.Inc()
				continue
			}
			if spare == nil {
				spare = make(map[int][]byte)
			}
			spare[ctx.id] = append([]byte(nil), comp.Data...)
			continue
		}
		if comp.Err != nil {
			return fail(fmt.Errorf("client: chunk %d read: %w", ctx.id, comp.Err))
		}
		if ctx.verify {
			if ver, derr := region.DecodeVersions(comp.Data); derr == nil {
				if v, ok := c.ncache.Confirm(ctx.id, ver, p.Now()); ok {
					n := v.(*rtree.Node)
					if ctx.level >= 0 && n.Level != ctx.level {
						c.ncache.Evict(ctx.id)
						return fail(errStale)
					}
					stack = append(stack, n)
					continue
				}
			}
			// Fingerprint torn or changed: pay for the full read.
			issue(ctx.id, ctx.level, 0)
			continue
		}
		payload, ver, derr := region.DecodeChunk(comp.Data, c.payload)
		if derr != nil {
			if !errors.Is(derr, region.ErrTornRead) {
				return fail(derr)
			}
			c.Counters.TornRetries.Inc()
			if ctx.tries >= c.cfg.MaxChunkRetries {
				return fail(ErrGaveUp)
			}
			issue(ctx.id, ctx.level, ctx.tries+1)
			continue
		}
		c.payload = payload
		if err := rtree.DecodeNode(payload, &c.node, c.ep.MaxEntries); err != nil {
			return fail(errStale)
		}
		if ctx.level >= 0 && c.node.Level != ctx.level {
			return fail(errStale)
		}
		c.nodeVer = ver
		c.cachePut(p, ctx.id)
		if err := expand(&c.node); err != nil {
			return fail(err)
		}
	}
	absorbSpare()
	c.readBatch = batch[:0]
	return items, nil
}

// adoptSpare turns the parked bytes of a completed speculative read into
// the node a demand visit asked for, skipping the read that visit would
// otherwise post. Torn chunks, garbage, and level mismatches return nil
// (counted as waste) and the caller falls back to the demand path —
// speculation never surfaces errStale itself. Adopted internal nodes
// enter the cache demand-attributed: they are being used right now.
func (c *Client) adoptSpare(p *sim.Proc, id, level int, raw []byte) *rtree.Node {
	payload, ver, derr := region.DecodeChunk(raw, c.payload)
	if derr != nil {
		c.Counters.PrefetchWaste.Inc()
		return nil
	}
	c.payload = payload
	var spec rtree.Node
	if err := rtree.DecodeNode(payload, &spec, c.ep.MaxEntries); err != nil {
		c.Counters.PrefetchWaste.Inc()
		return nil
	}
	if level >= 0 && spec.Level != level {
		c.Counters.PrefetchWaste.Inc()
		return nil
	}
	c.Counters.PrefetchHits.Inc()
	n := &rtree.Node{
		Level:   spec.Level,
		Entries: append([]rtree.Entry(nil), spec.Entries...),
	}
	if !n.IsLeaf() {
		c.ncache.Put(id, n, ver, p.Now())
	}
	return n
}

// absorbPrefetch consumes the bytes of a speculative read no demand
// visit adopted. A consistent internal node is parked in the node cache
// (flagged so its eventual hit or eviction is attributed to prefetching);
// torn reads, garbage, leaves — and internal nodes with no cache to park
// them in — count as prefetch waste. Speculation never propagates a
// failure: the traversal's correctness comes solely from demand reads.
func (c *Client) absorbPrefetch(p *sim.Proc, id int, raw []byte) {
	payload, ver, derr := region.DecodeChunk(raw, c.payload)
	if derr != nil {
		c.Counters.PrefetchWaste.Inc()
		return
	}
	c.payload = payload
	var spec rtree.Node
	if err := rtree.DecodeNode(payload, &spec, c.ep.MaxEntries); err != nil || spec.IsLeaf() {
		c.Counters.PrefetchWaste.Inc()
		return
	}
	if c.ncache == nil {
		c.Counters.PrefetchWaste.Inc()
		return
	}
	n := &rtree.Node{
		Level:   spec.Level,
		Entries: append([]rtree.Entry(nil), spec.Entries...),
	}
	c.ncache.PutPrefetched(id, n, ver, p.Now())
}
