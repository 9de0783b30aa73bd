// Client-side MOVE and remote kNN over real TCP — the geo serving
// operations of DESIGN.md §5.13, mirroring the simulated client's
// internal/client/move.go.
package rpcnet

import (
	"time"

	"github.com/catfish-db/catfish/internal/adaptive"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// Move relocates the entry (from, ref) to (to, ref) in one round trip: the
// server deletes the old position and inserts the new one under a single
// exclusive latch, so no concurrent search observes the object absent. A
// move of an unknown entry degrades to a plain insert (upsert semantics —
// the same state a delete-then-insert pair reaches).
func (c *Client) Move(from, to geo.Rect, ref uint64) error {
	c.stats.Moves.Inc()
	resp, err := c.roundTrip(wire.MoveRequest(c.nextID(), from, to, ref))
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return proto.StatusError(resp.Status, "move")
	}
	return nil
}

// Nearest returns the k entries nearest to (x, y) in ascending distance
// order, exactly as the server's local rtree.Tree.Nearest would. kNN is
// pinned to server-side execution — best-first traversal pops a global
// priority queue whose every step depends on all previous pops, so a
// client-side (offload) traversal would degenerate into one dependent
// chunk-read round trip per visited node (adaptive.Switch.DecideServerSide,
// DESIGN.md §5.13) — leaving fast messaging and the fetch/mailbox path.
func (c *Client) Nearest(k int, x, y float64) ([]rtree.Neighbor, Method, error) {
	c.stats.KNNSearches.Inc()
	m := c.pinServerSide(c.cfg.Forced)
	if c.cfg.Adaptive {
		m = c.decideServerSide()
	}
	var (
		items []wire.Item
		err   error
	)
	if m == MethodFetch {
		c.stats.FetchSearches.Inc()
		items, err = c.knnFetch(k, x, y)
	} else {
		m = MethodFast
		c.stats.FastSearches.Inc()
		items, err = c.knnFast(k, x, y)
	}
	if err != nil {
		return nil, m, err
	}
	return proto.NeighborsOfItems(items, x, y), m, nil
}

// pinServerSide maps a forced method onto one a kNN can execute: offload
// has no kNN path, so a forced-offload client runs its kNN fast.
func (c *Client) pinServerSide(m Method) Method {
	if m == MethodFetch {
		return MethodFetch
	}
	return MethodFast
}

// decideServerSide is decide for operations pinned to the server: the
// switch consumes heartbeats and keeps its window bookkeeping current but
// never opens or spends an offload window, leaving only the fetch-vs-fast
// choice.
func (c *Client) decideServerSide() Method {
	choice := c.sw.DecideServerSide(time.Since(c.start),
		func() (float64, float64) {
			return floatFromBits(c.heartbeat.Load()), floatFromBits(c.heartbeatTX.Load())
		},
		func() { c.heartbeat.Store(0) })
	if choice == adaptive.ChooseFetch && c.hello.FetchSlots > 0 {
		return MethodFetch
	}
	return MethodFast
}

// knnFast runs the kNN as one fast-messaging round trip.
func (c *Client) knnFast(k int, x, y float64) ([]wire.Item, error) {
	resp, err := c.roundTrip(wire.KNNRequest(c.nextID(), k, x, y))
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StatusOK {
		return nil, proto.StatusError(resp.Status, "knn")
	}
	return resp.Items, nil
}

// knnFetch executes the kNN through the fetch/mailbox path, mirroring
// searchFetch: descriptor or inline answer, mailbox slot pull, and a
// fast-messaging fallback when the pull exhausts its retry budget. The
// pulled neighbors arrive already in ascending distance order.
func (c *Client) knnFetch(k int, x, y float64) ([]wire.Item, error) {
	req := wire.KNNRequest(c.nextID(), k, x, y)
	req.Type = wire.MsgKNNFetch
	return c.fetchExchange(req, "knn fetch",
		func() ([]wire.Item, error) { return c.knnFast(k, x, y) })
}
