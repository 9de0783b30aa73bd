// Package kv is the paper's §VI framework claim made concrete end to end: a
// key-value service over a region-resident B+-tree, run by exactly the
// machinery that serves the R-tree — the one server core (proto.Serve) on
// the simulated fabric and on TCP, and the one client core (proto.Ops) with
// Algorithm 1's switch and the offloaded walk. What the B+-tree adds is
// this package: Store, its side of the server core's seam, and the key
// codec over the client operations (DESIGN.md §5.16).
package kv

import (
	"errors"

	"github.com/catfish-db/catfish/internal/btree"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// Store is a B+-tree as the server core runs it (a proto.Store): a request's
// key interval and a pair's value travel through the key codec
// (proto.KeyRange). Keys are unique, so an insert is an upsert — the
// overwrite a Put needs, and what a replicated record replays — and a
// delete ignores the request's Ref. A kNN or a MOVE means nothing here and
// is refused without touching the tree.
type Store struct {
	t       *btree.Tree
	pub     btree.Publisher
	written int // nodes the write in hand has published
}

// NewStore returns the store over t and becomes t's node publisher, so it
// counts what each write publishes; SetPublisher replaces what it delegates
// to. t must keep its node cache (the default): queries run in parallel
// under the shared latch, reading nodes only from it.
func NewStore(t *btree.Tree) *Store {
	s := &Store{t: t}
	s.SetPublisher(nil)
	t.SetPublisher(s.publish)
	return s
}

// Query answers a search of [from, to] with its pairs in ascending key
// order, charged as the tree's descent plus one node per MaxEntries pairs
// scanned: a found point get reads Height() nodes for one result.
func (s *Store) Query(req wire.Request, items []byte) ([]byte, rtree.OpStats, error) {
	if req.Type != wire.MsgSearch && req.Type != wire.MsgSearchFetch {
		return items, rtree.OpStats{}, proto.ErrIndex
	}
	from, to := proto.KeyBounds(req.Rect)
	n := len(items)
	err := s.t.Range(from, to, func(k, v uint64) bool {
		items = wire.AppendItem(items, proto.KeyRange(k, k), v)
		return true
	})
	pairs := (len(items) - n) / wire.ItemSize
	return items, rtree.OpStats{NodesRead: s.t.Height() + pairs/s.t.MaxEntries(), Results: pairs}, err
}

// Insert stores val under r's key, overwriting a present one.
func (s *Store) Insert(r geo.Rect, val uint64) (rtree.OpStats, error) {
	key, _ := proto.KeyBounds(r)
	s.written = 0
	err := s.t.Update(key, val)
	if errors.Is(err, btree.ErrNotFound) {
		err = s.t.Insert(key, val)
	}
	return s.stats(), err
}

// Delete removes r's key.
func (s *Store) Delete(r geo.Rect, _ uint64) (bool, rtree.OpStats, error) {
	key, _ := proto.KeyBounds(r)
	s.written = 0
	err := s.t.Delete(key)
	if errors.Is(err, btree.ErrNotFound) {
		return false, s.stats(), nil
	}
	return err == nil, s.stats(), err
}

// Relocate refuses a MOVE.
func (s *Store) Relocate(geo.Rect, geo.Rect, uint64) (rtree.Relocation, rtree.OpStats, error) {
	return rtree.RelocateAbsent, rtree.OpStats{}, proto.ErrIndex
}

// stats is a write's charge: one descent, and the nodes it published.
func (s *Store) stats() rtree.OpStats {
	return rtree.OpStats{NodesRead: s.t.Height(), NodesWritten: s.written}
}

func (s *Store) publish(chunkID int, payload []byte) error {
	s.written++
	return s.pub(chunkID, payload)
}

// SetPublisher replaces how node payloads reach the region (nil restores
// the atomic default).
func (s *Store) SetPublisher(pub func(chunkID int, payload []byte) error) {
	if pub == nil {
		pub = s.t.Region().WriteChunkPrefix
	}
	s.pub = pub
}

// Region returns the region the nodes live in.
func (s *Store) Region() *region.Region { return s.t.Region() }

// RootChunk returns the tree's stable root chunk.
func (s *Store) RootChunk() int { return s.t.RootChunk() }

// MaxEntries returns the node fan-out.
func (s *Store) MaxEntries() int { return s.t.MaxEntries() }

// Kind reports that the B+-tree walk reads the chunks.
func (s *Store) Kind() wire.IndexKind { return wire.IndexBTree }
