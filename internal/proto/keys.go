package proto

import (
	"errors"
	"math"

	"github.com/catfish-db/catfish/internal/btree"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// The key codec (DESIGN.md §5.16): a B+-tree operation travels as an
// ordinary request and each pair comes back as an ordinary item. A key
// interval [from, to] rides Rect.MinX and Rect.MaxX as float64 bit patterns
// — copied, never compared as floats, so every uint64 survives, NaN
// patterns and −0 included — and a value rides Ref.

// KeyRange is the rect that carries the key interval [from, to].
func KeyRange(from, to uint64) geo.Rect {
	return geo.Rect{MinX: math.Float64frombits(from), MaxX: math.Float64frombits(to)}
}

// KeyBounds is the key interval r carries.
func KeyBounds(r geo.Rect) (from, to uint64) {
	return math.Float64bits(r.MinX), math.Float64bits(r.MaxX)
}

// maxMoveRight bounds the B-link rightward moves at the leaf level that
// deliver nothing before the walk is declared stale and restarted.
const maxMoveRight = 8

// errChain marks an empty internal node, or a leaf chain that loops, runs
// backwards or moves right past maxMoveRight: the structure changed under
// the walk.
var errChain = errors.New("catfish: inconsistent B+-tree node or leaf chain")

// keys is the B+-tree's side of the offloaded walk (internal/btree), its
// query a key interval through the codec. An internal node yields the one
// child that holds the interval's start; a leaf yields its keys in range
// and, while the range runs past its last key, its right sibling as a
// level-0 ref — so B-link move-right and the leaf chain are ordinary refs,
// and a looping or non-ascending chain is a stale restart. hops counts the
// right-sibling moves since the last descent or delivered key; every walk
// attempt starts at the root, whose stable chunk never holds a chained leaf,
// so it starts at zero.
type keys struct{ hops int }

// newKeyWalk returns the offloaded walk over a B+-tree, configured and
// counted as NewWalk's.
func newKeyWalk(cfg OpsConfig, counters *telemetry.ClientMetrics) *Walk[btree.Node, geo.Rect, wire.Item] {
	return NewWalk[btree.Node, geo.Rect, wire.Item](&keys{}, cfg, counters)
}

// Decode bounds a node's entries as the tree's own reads do: the fan-out
// plus one.
func (*keys) Decode(payload []byte, n *btree.Node, maxEntries int) error {
	return btree.DecodeNode(payload, n, maxEntries+1)
}

func (*keys) Level(n *btree.Node) int { return n.Level }

func (*keys) Clone(dst, n *btree.Node) *btree.Node {
	if dst == nil {
		dst = new(btree.Node)
	}
	dst.Level, dst.Next, dst.Entries = n.Level, n.Next, append(dst.Entries[:0], n.Entries...)
	return dst
}

func (k *keys) Expand(n *btree.Node, q geo.Rect, refs []Ref, out []wire.Item) ([]Ref, []wire.Item, error) {
	from, to := KeyBounds(q)
	if !n.IsLeaf() {
		if len(n.Entries) == 0 {
			return refs, out, errChain
		}
		k.hops = 0
		child := n.Entries[n.ChildIndex(from)]
		return append(refs, Ref{Chunk: int(child.Val), Level: n.Level - 1}), out, nil
	}
	delivered := len(out)
	for _, e := range n.Entries[n.Search(from):] {
		if e.Key > to {
			break
		}
		if len(out) > 0 {
			if last, _ := KeyBounds(out[len(out)-1].Rect); e.Key <= last {
				return refs, out, errChain
			}
		}
		out = append(out, wire.Item{Rect: KeyRange(e.Key, e.Key), Ref: e.Val})
	}
	last := len(n.Entries) - 1
	if n.Next < 0 || (last >= 0 && n.Entries[last].Key >= to) {
		return refs, out, nil
	}
	if len(out) > delivered {
		k.hops = 0
	} else if k.hops++; k.hops > maxMoveRight {
		return refs, out, errChain
	}
	return append(refs, Ref{Chunk: n.Next, Level: 0}), out, nil
}
