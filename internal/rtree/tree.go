package rtree

import (
	"fmt"
	"sort"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
)

// Publisher writes a node's encoded payload into a region chunk. The default
// publisher writes atomically; the simulation server installs a staged
// publisher that spreads the write over a virtual-time window so offloaded
// readers can observe (and retry) genuinely torn reads.
type Publisher = func(chunkID int, payload []byte) error

// Config tunes a Tree.
type Config struct {
	// MaxEntries is the node fan-out M. 0 selects the chunk capacity,
	// capped at 64 (the paper-scale default giving height 4 for 2M items).
	MaxEntries int
	// MinEntries is the underflow bound m. 0 selects 40% of MaxEntries,
	// the R*-tree recommendation.
	MinEntries int
	// ReinsertFraction is the share of entries force-reinserted on first
	// overflow per level (R* recommends 0.3). 0 selects 0.3; negative
	// disables forced reinsertion.
	ReinsertFraction float64
	// DisableCache turns off the server-side decoded-node cache and makes
	// every tree operation re-read node bytes from the region. The cache is
	// sound because the tree is the region's only writer; disabling it is
	// useful in tests that must exercise the serialized path.
	DisableCache bool
}

// OpStats reports the work a single tree operation performed; the Catfish
// server converts it into a CPU service demand, and the harness aggregates
// it for the evaluation tables.
type OpStats struct {
	NodesRead    int // nodes decoded during the operation
	NodesWritten int // nodes published during the operation
	Results      int // matching items (Search only)
}

func (s *OpStats) add(o OpStats) {
	s.NodesRead += o.NodesRead
	s.NodesWritten += o.NodesWritten
	s.Results += o.Results
}

// Tree is an R*-tree stored node-per-chunk in a memory region. It is not
// safe for concurrent use; Catfish serializes all tree mutations through the
// server's latch, and lockless client reads go through the region layer
// directly, never through Tree.
type Tree struct {
	reg        *region.Region
	publish    Publisher
	maxEntries int
	minEntries int
	reinsertN  int // entries removed on forced reinsertion

	rootChunk int
	height    int // levels; root node has Level == height-1
	size      int // stored items

	// Per-insertion forced-reinsertion marker (R*: once per level).
	reinsertedAt map[int]bool

	// cache holds decoded nodes by chunk ID (nil when disabled). The server
	// is the sole writer of the region, so a write-through cache is always
	// coherent; offloading clients never go through Tree and always read
	// the region bytes.
	cache []*Node

	// Scratch buffers to keep steady-state operations allocation-free.
	rawBuf     []byte
	payloadBuf []byte
	encodeBuf  []byte
	cands      candidates
	// pathBuf backs the one live descent: descend and findLeaf both refill
	// it, so a path is dead once the next descent starts (reinsertion and
	// orphan re-insertion only begin theirs after the last use of the old).
	pathBuf path

	stats OpStats
}

// New creates an empty tree whose nodes live in reg. The root occupies the
// first allocated chunk and never moves, so clients can cache its chunk ID
// for the lifetime of the tree (the paper returns the registered address
// once, at connection initialization).
func New(reg *region.Region, cfg Config) (*Tree, error) {
	capacity := NodeCapacity(reg.PayloadSize())
	maxE := cfg.MaxEntries
	if maxE == 0 {
		maxE = capacity
		if maxE > 64 {
			maxE = 64
		}
	}
	if maxE < 4 {
		return nil, fmt.Errorf("rtree: MaxEntries %d too small (chunk capacity %d)", maxE, capacity)
	}
	if maxE > capacity {
		return nil, fmt.Errorf("rtree: MaxEntries %d exceeds chunk capacity %d", maxE, capacity)
	}
	minE := cfg.MinEntries
	if minE == 0 {
		minE = maxE * 2 / 5
	}
	if minE < 1 || minE > maxE/2 {
		return nil, fmt.Errorf("rtree: MinEntries %d out of range [1, %d]", minE, maxE/2)
	}
	frac := cfg.ReinsertFraction
	if frac == 0 {
		frac = 0.3
	}
	reinsertN := 0
	if frac > 0 {
		reinsertN = int(frac * float64(maxE+1))
		if reinsertN < 1 {
			reinsertN = 1
		}
		if reinsertN > maxE+1-minE {
			reinsertN = maxE + 1 - minE
		}
	}
	t := &Tree{
		reg:          reg,
		publish:      reg.WriteChunkPrefix,
		maxEntries:   maxE,
		minEntries:   minE,
		reinsertN:    reinsertN,
		height:       1,
		reinsertedAt: make(map[int]bool),
		rawBuf:       make([]byte, reg.ChunkSize()),
		payloadBuf:   make([]byte, 0, reg.PayloadSize()),
	}
	if !cfg.DisableCache {
		t.cache = make([]*Node, reg.NumChunks())
	}
	root, err := reg.Alloc()
	if err != nil {
		return nil, fmt.Errorf("rtree: alloc root: %w", err)
	}
	t.rootChunk = root
	if err := t.writeNode(root, &Node{Level: 0}); err != nil {
		return nil, err
	}
	return t, nil
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a lone root leaf).
func (t *Tree) Height() int { return t.height }

// RootChunk returns the chunk ID of the root node; it is stable for the
// tree's lifetime.
func (t *Tree) RootChunk() int { return t.rootChunk }

// MaxEntries returns the configured fan-out M.
func (t *Tree) MaxEntries() int { return t.maxEntries }

// MinEntries returns the configured underflow bound m.
func (t *Tree) MinEntries() int { return t.minEntries }

// Region returns the backing memory region.
func (t *Tree) Region() *region.Region { return t.reg }

// SetPublisher replaces how node payloads are written to the region. The
// Catfish server installs a staged publisher here so node writes open
// torn-read windows for concurrent one-sided readers. Passing nil restores
// the default atomic publisher.
func (t *Tree) SetPublisher(pub Publisher) {
	if pub == nil {
		pub = t.reg.WriteChunkPrefix
	}
	t.publish = pub
}

// readNode returns the decoded node for chunk id, from the write-through
// cache when enabled, otherwise freshly decoded from the region.
func (t *Tree) readNode(id int) (*Node, error) {
	t.stats.NodesRead++
	if t.cache != nil {
		if n := t.cache[id]; n != nil {
			return n, nil
		}
	}
	n, err := t.readNodeRegion(id)
	if err != nil {
		return nil, err
	}
	if t.cache != nil {
		t.cache[id] = n
	}
	return n, nil
}

// readNodeRegion decodes chunk id from the region bytes, bypassing the
// cache. CheckInvariants uses it to validate what RDMA readers would see.
func (t *Tree) readNodeRegion(id int) (*Node, error) {
	payload, _, err := t.reg.ReadChunk(id, t.rawBuf, t.payloadBuf)
	if err != nil {
		return nil, fmt.Errorf("rtree: read chunk %d: %w", id, err)
	}
	t.payloadBuf = payload
	n := &Node{}
	if err := DecodeNode(payload, n, t.maxEntries); err != nil {
		return nil, fmt.Errorf("rtree: chunk %d: %w", id, err)
	}
	return n, nil
}

// writeNode publishes n into chunk id and refreshes the cache.
func (t *Tree) writeNode(id int, n *Node) error {
	t.encodeBuf = n.Encode(t.encodeBuf)
	if err := t.publish(id, t.encodeBuf); err != nil {
		return fmt.Errorf("rtree: publish chunk %d: %w", id, err)
	}
	if t.cache != nil {
		t.cache[id] = n
	}
	t.stats.NodesWritten++
	return nil
}

// path captures one root-to-node descent. nodes[0] is the root; child[i] is
// the entry index in nodes[i] leading to nodes[i+1].
type path struct {
	ids   []int
	nodes []*Node
	child []int
}

func (p *path) depth() int { return len(p.nodes) }

// reset empties p for a new descent, keeping its capacity.
func (p *path) reset() *path {
	p.ids, p.nodes, p.child = p.ids[:0], p.nodes[:0], p.child[:0]
	return p
}

// descend walks from the root to a node at targetLevel, choosing subtrees
// with the R* rules, and returns the full path (t.pathBuf).
func (t *Tree) descend(r geo.Rect, targetLevel int) (*path, error) {
	p := t.pathBuf.reset()
	id := t.rootChunk
	for {
		n, err := t.readNode(id)
		if err != nil {
			return nil, err
		}
		p.ids = append(p.ids, id)
		p.nodes = append(p.nodes, n)
		if n.Level == targetLevel {
			return p, nil
		}
		if n.Level < targetLevel || len(n.Entries) == 0 {
			return nil, fmt.Errorf("rtree: descend past target level %d at chunk %d (level %d)",
				targetLevel, id, n.Level)
		}
		idx := t.chooseSubtree(n, r)
		p.child = append(p.child, idx)
		id = int(n.Entries[idx].Ref)
	}
}

// chooseSubtree picks the child of n to descend into for inserting r:
// minimum overlap enlargement when the children are leaves, minimum area
// enlargement otherwise (ties broken by area enlargement, then area), per
// the R*-tree ChooseSubtree algorithm.
func (t *Tree) chooseSubtree(n *Node, r geo.Rect) int {
	if n.Level == 1 {
		return t.chooseLeafSubtree(n, r)
	}
	best := 0
	bestEnl := n.Entries[0].Rect.Enlargement(r)
	bestArea := n.Entries[0].Rect.Area()
	for i := 1; i < len(n.Entries); i++ {
		enl := n.Entries[i].Rect.Enlargement(r)
		area := n.Entries[i].Rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// chooseSubtreeProbe bounds the O(M²) overlap computation: only the probe
// candidates with least area enlargement are considered, the R* "nearly
// minimum overlap cost" heuristic for large fan-outs.
const chooseSubtreeProbe = 32

// candidates is chooseLeafSubtree's scratch: entry indices and, by entry
// index, each entry's area enlargement — computed once, and the sort key.
// Sorting goes through sort.Sort on the tree-held value, so it allocates
// nothing per call.
type candidates struct {
	idx []int
	enl []float64
}

func (c *candidates) Len() int           { return len(c.idx) }
func (c *candidates) Less(a, b int) bool { return c.enl[c.idx[a]] < c.enl[c.idx[b]] }
func (c *candidates) Swap(a, b int)      { c.idx[a], c.idx[b] = c.idx[b], c.idx[a] }

// chooseLeafSubtree picks the child with the least (overlap enlargement,
// area enlargement, area), first in candidate order among equals. Both
// enlargements are ≥ 0 and a child that contains r has exactly 0 of each,
// which prunes the O(M²) overlap sums without changing the choice: a
// containing child's sum is not computed, and once the best's is 0 a
// candidate that does not beat it on (area enlargement, area) cannot win
// whatever its own sum is, so it is skipped. When scoreChildren finds the
// answer outright, nothing is sorted or summed.
func (t *Tree) chooseLeafSubtree(n *Node, r geo.Rect) int {
	if best := t.scoreChildren(n, r); best >= 0 {
		return best
	}
	c := &t.cands
	if len(c.idx) > chooseSubtreeProbe {
		sort.Sort(c)
		c.idx = c.idx[:chooseSubtreeProbe]
	}
	best := -1
	var bestOverlap, bestEnl, bestArea float64
	for _, i := range c.idx {
		enl, area := c.enl[i], n.Entries[i].Rect.Area()
		closer := enl < bestEnl || (enl == bestEnl && area < bestArea)
		if best >= 0 && bestOverlap == 0 && !closer {
			continue
		}
		var ov float64
		if !n.Entries[i].Rect.Contains(r) {
			ov = t.overlapDelta(n, i, r)
		}
		if best < 0 || ov < bestOverlap || (ov == bestOverlap && closer) {
			best, bestOverlap, bestEnl, bestArea = i, ov, enl, area
		}
	}
	return best
}

// scoreChildren fills t.cands with n's children and their area
// enlargements for r. It returns the child chooseLeafSubtree would pick when
// that needs no sort and no overlap sum, else -1: when every child of zero
// enlargement contains r, there are at most chooseSubtreeProbe of them, and
// one has the least area alone. Every other child then has a positive
// enlargement, the probe keeps all the zero ones, and among those —
// overlap enlargement 0 each — the least area wins with no tie to break.
func (t *Tree) scoreChildren(n *Node, r geo.Rect) int {
	c := &t.cands
	c.idx, c.enl = c.idx[:0], c.enl[:0]
	best, zero, unique, contained := -1, 0, false, true
	var bestArea float64
	for i := range n.Entries {
		rect := &n.Entries[i].Rect
		enl := rect.Enlargement(r)
		c.idx = append(c.idx, i)
		c.enl = append(c.enl, enl)
		if enl != 0 || !contained {
			continue
		}
		zero++
		if !rect.Contains(r) {
			contained = false // a degenerate child: the sorted loop decides
			continue
		}
		switch area := rect.Area(); {
		case best < 0 || area < bestArea:
			best, bestArea, unique = i, area, true
		case area == bestArea:
			unique = false
		}
	}
	if best < 0 || !contained || !unique || zero > chooseSubtreeProbe {
		return -1
	}
	return best
}

// overlapDelta computes how much the overlap of entry i with its siblings
// grows if i is enlarged to cover r.
func (t *Tree) overlapDelta(n *Node, i int, r geo.Rect) float64 {
	enlarged := n.Entries[i].Rect.Union(r)
	var delta float64
	for j := range n.Entries {
		if j == i {
			continue
		}
		delta += enlarged.OverlapArea(n.Entries[j].Rect) -
			n.Entries[i].Rect.OverlapArea(n.Entries[j].Rect)
	}
	return delta
}

// Insert adds an item. The same (rect, ref) pair may be inserted multiple
// times; each insertion stores a separate entry.
func (t *Tree) Insert(r geo.Rect, ref uint64) (OpStats, error) {
	if !r.Valid() {
		return OpStats{}, ErrInvalidRect
	}
	t.stats = OpStats{}
	clear(t.reinsertedAt)
	if err := t.insertEntry(Entry{Rect: r, Ref: ref}, 0); err != nil {
		return t.stats, err
	}
	t.size++
	return t.stats, nil
}

// insertEntry places e into a node at level, handling overflow via forced
// reinsertion or splitting.
func (t *Tree) insertEntry(e Entry, level int) error {
	p, err := t.descend(e.Rect, level)
	if err != nil {
		return err
	}
	d := p.depth() - 1
	p.nodes[d].Entries = append(p.nodes[d].Entries, e)
	return t.finishInsert(p, d)
}

// finishInsert publishes the modified node at path depth d, handling
// overflow and propagating MBR updates to the root.
func (t *Tree) finishInsert(p *path, d int) error {
	if len(p.nodes[d].Entries) > t.maxEntries {
		return t.overflow(p, d)
	}
	return t.republish(p, d)
}

// republish publishes the modified node at path depth d and refreshes the
// rectangles its ancestors hold for the path (adjustUp).
func (t *Tree) republish(p *path, d int) error {
	if err := t.writeNode(p.ids[d], p.nodes[d]); err != nil {
		return err
	}
	return t.adjustUp(p, d)
}

// adjustUp refreshes parent MBRs from depth d-1 to the root, writing only
// parents whose covering rectangle actually changed.
func (t *Tree) adjustUp(p *path, d int) error {
	for i := d - 1; i >= 0; i-- {
		parent, childIdx := p.nodes[i], p.child[i]
		want := p.nodes[i+1].MBR()
		if parent.Entries[childIdx].Rect.Equal(want) {
			return nil
		}
		parent.Entries[childIdx].Rect = want
		if err := t.writeNode(p.ids[i], parent); err != nil {
			return err
		}
	}
	return nil
}

// overflow applies the R* overflow treatment to the node at path depth d,
// which holds maxEntries+1 entries: forced reinsertion on the first overflow
// of its level within this insertion (unless it is the root), a split
// otherwise.
func (t *Tree) overflow(p *path, d int) error {
	n := p.nodes[d]
	if d != 0 && t.reinsertN > 0 && !t.reinsertedAt[n.Level] {
		t.reinsertedAt[n.Level] = true
		return t.reinsert(p, d)
	}
	return t.split(p, d)
}
