package proto

import (
	"errors"

	"github.com/catfish-db/catfish/internal/btree"
	"github.com/catfish-db/catfish/internal/telemetry"
)

// maxMoveRight bounds the B-link rightward moves at the leaf level that
// deliver nothing before the walk is declared stale and restarted.
const maxMoveRight = 8

// errChain marks an empty internal node, or a leaf chain that loops, runs
// backwards or moves right past maxMoveRight: the structure changed under
// the walk.
var errChain = errors.New("catfish: inconsistent B+-tree node or leaf chain")

// keyScan is one offloaded B+-tree read: the keys in [from, to], and the
// right-sibling moves since the last descent or delivered key.
type keyScan struct {
	from, to uint64
	hops     int
}

// keys is the B+-tree's side of the offloaded walk (internal/btree). An
// internal node yields the one child that holds the scan's cursor; a leaf
// yields its keys in range and, while the range runs past its last key, its
// right sibling as a level-0 ref — so B-link move-right and the leaf chain
// are ordinary refs, and a looping or non-ascending chain is a stale
// restart.
type keys struct{}

// Decode bounds a node's entries as the tree's own reads do: the fan-out
// plus one.
func (keys) Decode(payload []byte, n *btree.Node, maxEntries int) error {
	return btree.DecodeNode(payload, n, maxEntries+1)
}

func (keys) Level(n *btree.Node) int { return n.Level }

func (keys) Clone(n *btree.Node) *btree.Node {
	return &btree.Node{Level: n.Level, Next: n.Next, Entries: append([]btree.Entry(nil), n.Entries...)}
}

func (keys) Expand(n *btree.Node, s *keyScan, refs []Ref, out []btree.Entry) ([]Ref, []btree.Entry, error) {
	if !n.IsLeaf() {
		if len(n.Entries) == 0 {
			return refs, out, errChain
		}
		s.hops = 0
		child := n.Entries[n.ChildIndex(s.from)]
		return append(refs, Ref{Chunk: int(child.Val), Level: n.Level - 1}), out, nil
	}
	delivered := len(out)
	for _, e := range n.Entries[n.Search(s.from):] {
		if e.Key > s.to {
			break
		}
		if len(out) > 0 && e.Key <= out[len(out)-1].Key {
			return refs, out, errChain
		}
		out = append(out, e)
	}
	last := len(n.Entries) - 1
	if n.Next < 0 || (last >= 0 && n.Entries[last].Key >= s.to) {
		return refs, out, nil
	}
	if len(out) > delivered {
		s.hops = 0
	} else if s.hops++; s.hops > maxMoveRight {
		return refs, out, errChain
	}
	return append(refs, Ref{Chunk: n.Next, Level: 0}), out, nil
}

// KeyWalk is the offloaded walk over a B+-tree, with the scan it runs.
type KeyWalk struct {
	w    *Walk[btree.Node, *keyScan, btree.Entry]
	scan keyScan
}

// NewKeyWalk returns a walk over the B+-tree cfg.Tree describes (its
// MaxEntries is the tree's fan-out), configured and counted as NewWalk's.
func NewKeyWalk(cfg OpsConfig, counters *telemetry.ClientMetrics) *KeyWalk {
	return &KeyWalk{w: NewWalk[btree.Node, *keyScan, btree.Entry](keys{}, cfg, counters)}
}

// ScanKeys returns the pairs with keys in [from, to], ascending, read over p
// by w's offloaded walk.
func ScanKeys[P ReadPort](w *KeyWalk, p P, from, to uint64) ([]btree.Entry, error) {
	w.scan = keyScan{from: from, to: to}
	return Offload(w.w, p, &w.scan)
}
