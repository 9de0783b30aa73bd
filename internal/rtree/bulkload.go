package rtree

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/catfish-db/catfish/internal/geo"
)

// ErrNotEmpty is returned by BulkLoad when the tree already contains items.
var ErrNotEmpty = errors.New("rtree: bulk load requires an empty tree")

// BulkLoad replaces the content of an empty tree with items using
// Sort-Tile-Recursive (STR) packing: items are tiled into vertical slices by
// x-center, sorted by y-center within each slice, and packed into leaves,
// then the procedure repeats on the leaf MBRs until a single root remains.
//
// The evaluation harness uses BulkLoad to stand up the paper's pre-built
// 2-million-rectangle tree quickly; it is not part of the measured
// operations. fillFactor in (0, 1] controls leaf occupancy (0 selects 0.9,
// leaving headroom for the hybrid workloads' inserts).
func (t *Tree) BulkLoad(items []Entry, fillFactor float64) error {
	if t.size != 0 || t.height != 1 {
		return ErrNotEmpty
	}
	for _, it := range items {
		if !it.Rect.Valid() {
			return fmt.Errorf("%w: %v", ErrInvalidRect, it.Rect)
		}
	}
	if fillFactor == 0 {
		fillFactor = 0.9
	}
	if fillFactor <= 0 || fillFactor > 1 {
		return fmt.Errorf("rtree: fill factor %v out of (0, 1]", fillFactor)
	}
	capPerNode := int(fillFactor * float64(t.maxEntries))
	// Keep at least 2·m so trailing-group rebalancing can always produce two
	// halves that respect the minimum-occupancy invariant.
	if capPerNode < 2*t.minEntries {
		capPerNode = 2 * t.minEntries
	}
	if capPerNode > t.maxEntries {
		capPerNode = t.maxEntries
	}
	t.stats = OpStats{}

	if len(items) <= capPerNode {
		root := &Node{Level: 0, Entries: append([]Entry(nil), items...)}
		if err := t.writeNode(t.rootChunk, root); err != nil {
			return err
		}
		t.size = len(items)
		t.height = 1
		return nil
	}

	// Phase 1: build the whole tree in memory, bottom-up, exactly as the
	// chunk-at-a-time loader did — but defer chunk assignment so the layout
	// can be chosen afterwards. Parent entries carry the child's index into
	// the current level's node slice in Ref, which travels with them into
	// strTile's groups. strTile never reorders its input, so items needs no
	// defensive copy.
	level := 0
	entries := items
	var cur []*buildNode
	for len(entries) > capPerNode {
		groups := strTile(entries, capPerNode, t.minEntries)
		next := make([]*buildNode, 0, len(groups))
		parents := make([]Entry, 0, len(groups))
		for _, g := range groups {
			bn := &buildNode{level: level, mbr: (&Node{Entries: g}).MBR()}
			if level == 0 {
				bn.entries = g
			} else {
				bn.children = make([]*buildNode, len(g))
				for j, e := range g {
					bn.children[j] = cur[e.Ref]
				}
			}
			parents = append(parents, Entry{Rect: bn.mbr, Ref: uint64(len(next))})
			next = append(next, bn)
		}
		cur = next
		entries = parents
		level++
	}
	root := &buildNode{level: level, children: make([]*buildNode, len(entries))}
	for i, e := range entries {
		root.children[i] = cur[e.Ref]
	}

	// Phase 2: assign chunks in DFS preorder — each child's entire subtree
	// is laid out before its next sibling starts. With an ascending
	// allocator (SortFreeList) this makes every subtree a contiguous run of
	// chunk ids; in particular a level-1 node at chunk c has its leaf
	// children at exactly c+1..c+n, so sibling leaf reads coalesce into one
	// merged RDMA Read and a speculative span read behind the parent
	// prefetches precisely those leaves.
	t.reg.SortFreeList()
	root.chunk = t.rootChunk
	if err := t.assignPreorder(root); err != nil {
		return err
	}

	// Phase 3: publish. The root is written last so a concurrent offload
	// client never follows a ref into an unwritten chunk.
	for _, c := range root.children {
		if err := t.writeSubtree(c); err != nil {
			return err
		}
	}
	if err := t.writeBuildNode(root); err != nil {
		return err
	}
	t.size = len(items)
	t.height = level + 1
	return nil
}

// buildNode is one node of the in-memory tree BulkLoad assembles before
// chunk assignment: leaf payload at level 0, child pointers above.
type buildNode struct {
	level    int
	mbr      geo.Rect
	entries  []Entry
	children []*buildNode
	chunk    int
}

// assignPreorder allocates chunks for n's descendants in DFS preorder
// (n itself is already assigned).
func (t *Tree) assignPreorder(n *buildNode) error {
	for _, c := range n.children {
		id, err := t.reg.Alloc()
		if err != nil {
			return fmt.Errorf("rtree: bulk load alloc: %w", err)
		}
		c.chunk = id
		if err := t.assignPreorder(c); err != nil {
			return err
		}
	}
	return nil
}

// writeSubtree publishes n's subtree children-first.
func (t *Tree) writeSubtree(n *buildNode) error {
	for _, c := range n.children {
		if err := t.writeSubtree(c); err != nil {
			return err
		}
	}
	return t.writeBuildNode(n)
}

// writeBuildNode publishes one assembled node into its assigned chunk.
func (t *Tree) writeBuildNode(bn *buildNode) error {
	n := &Node{Level: bn.level, Entries: bn.entries}
	if bn.level > 0 {
		n.Entries = make([]Entry, len(bn.children))
		for i, c := range bn.children {
			n.Entries[i] = Entry{Rect: c.mbr, Ref: uint64(c.chunk)}
		}
	}
	return t.writeNode(bn.chunk, n)
}

// strTile partitions entries into groups of at most capPerNode (and at
// least minEntries) using the STR tiling: order by x-center, cut into
// ceil(sqrt(P)) vertical slices, order each slice by y-center, and cut into
// runs of capPerNode. A trailing run smaller than minEntries is rebalanced
// with its predecessor.
//
// entries is only read: both orders sort one word per entry (sortByKey)
// and each group is a fresh array gathered through the words' indexes.
// Both sorts are stable: entries with equal x-centers keep their input
// order, and entries with equal y-centers keep their x order within the
// slice, so a tie-heavy input tiles the same way on every run.
func strTile(entries []Entry, capPerNode, minEntries int) [][]Entry {
	n := len(entries)
	p := (n + capPerNode - 1) / capPerNode // total nodes needed
	s := int(math.Ceil(math.Sqrt(float64(p))))
	sliceSize := s * capPerNode

	idxBits := uint(bits.Len(uint(n)))
	idxMask := uint64(1)<<idxBits - 1
	keys := make([]uint64, n)
	order := make([]uint64, n)
	for i := range entries {
		r := &entries[i].Rect
		keys[i] = centerKey(r.MinX + r.MaxX)
		order[i] = uint64(i)
	}
	scratch := make([]uint64, n)
	sortByKey(order, scratch, keys, idxBits)
	for i := range entries {
		r := &entries[i].Rect
		keys[i] = centerKey(r.MinY + r.MaxY)
	}
	groups := make([][]Entry, 0, p)
	for start := 0; start < n; start += sliceSize {
		slice := order[start:min(start+sliceSize, n)]
		sortByKey(slice, scratch, keys, idxBits)
		sliceStart := len(groups)
		for gs := 0; gs < len(slice); gs += capPerNode {
			run := slice[gs:min(gs+capPerNode, len(slice))]
			g := make([]Entry, len(run))
			for j, w := range run {
				g[j] = entries[w&idxMask]
			}
			groups = append(groups, g)
		}
		// Rebalance a small trailing run within this slice.
		if last := len(groups) - 1; len(groups[last]) < minEntries && last > sliceStart {
			rebalance(groups, last)
		}
	}
	// A lone undersized group in the final slice borrows from the previous
	// slice's last group.
	if last := len(groups) - 1; len(groups) > 1 && len(groups[last]) < minEntries {
		rebalance(groups, last)
	}
	return groups
}

// centerKey maps a center sum to a key whose unsigned order is the float
// order: the sign bit is flipped for non-negative values and every bit for
// negative ones. -0 folds into +0, which compares equal to it.
func centerKey(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortByKey stably sorts words — each an index into keys in its low
// idxBits — by keys[index]. Each word takes its key's bits above the index
// bits, a radix sort orders the words on those, and words whose high bits
// agree then keep their order unless the low bits of their keys differ.
// One 8-byte word per entry halves the bytes a counting pass moves, and the
// index bits are never sorted on: four passes order a million entries.
func sortByKey(words, scratch, keys []uint64, idxBits uint) {
	mask := uint64(1)<<idxBits - 1
	for i, w := range words {
		idx := w & mask
		words[i] = keys[idx]&^mask | idx
	}
	radixSort(words, scratch, idxBits)
	low := func(a, b uint64) int { return cmp.Compare(keys[a&mask]&mask, keys[b&mask]&mask) }
	for lo := 0; lo < len(words); {
		hi := lo + 1
		for hi < len(words) && words[hi]&^mask == words[lo]&^mask {
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(words[lo:hi], low)
		}
		lo = hi
	}
}

// radixBits is radixSort's digit width: at most six counting passes cover
// a word, and their histograms (48 KB) stay in L2.
const (
	radixBits  = 11
	radixMask  = 1<<radixBits - 1
	radixDigit = (64 + radixBits - 1) / radixBits
)

// radixSort sorts a stably by each word's bits above its low from bits:
// one LSD counting pass per digit, skipping each digit every word shares.
// scratch must be at least len(a) long.
func radixSort(a, scratch []uint64, from uint) {
	if len(a) < 2 {
		return
	}
	digits := (64 - int(from) + radixBits - 1) / radixBits
	var counts [radixDigit][1 << radixBits]uint32
	for _, w := range a {
		for d := 0; d < digits; d++ {
			counts[d][w>>(from+radixBits*uint(d))&radixMask]++
		}
	}
	src, dst := a, scratch[:len(a)]
	for d := 0; d < digits; d++ {
		c := &counts[d]
		shift := from + radixBits*uint(d)
		if int(c[a[0]>>shift&radixMask]) == len(a) {
			continue
		}
		var sum uint32
		for i, v := range c {
			c[i] = sum
			sum += v
		}
		for _, w := range src {
			b := w >> shift & radixMask
			dst[c[b]] = w
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// rebalance evens out groups[last-1] and groups[last]. Each half gets a
// fresh backing array: the two groups become independent nodes whose entry
// slices must never alias (an append into one would otherwise overwrite the
// other's entries in place).
func rebalance(groups [][]Entry, last int) {
	merged := make([]Entry, 0, len(groups[last-1])+len(groups[last]))
	merged = append(merged, groups[last-1]...)
	merged = append(merged, groups[last]...)
	half := len(merged) / 2
	groups[last-1] = append([]Entry(nil), merged[:half]...)
	groups[last] = append([]Entry(nil), merged[half:]...)
}
