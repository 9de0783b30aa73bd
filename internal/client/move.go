package client

import (
	"fmt"

	"github.com/catfish-db/catfish/internal/adaptive"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// Move relocates the entry (from, ref) to (to, ref) in one round trip: the
// server deletes the old position and inserts the new one under a single
// exclusive latch, so no concurrent search observes the object absent. A
// move of an unknown entry degrades to a plain insert (upsert semantics —
// the same state a delete-then-insert pair reaches). Like all writes it
// travels by messaging so the server's lock discipline covers it.
func (c *Client) Move(p *sim.Proc, from, to geo.Rect, ref uint64) error {
	c.stats.Moves.Inc()
	resp, err := c.roundTrip(p, wire.MoveRequest(c.nextID(), from, to, ref))
	if err != nil {
		return err
	}
	return proto.OpError(wire.MsgMove, resp.Status)
}

// Nearest returns the k entries nearest to (x, y) in ascending distance
// order, exactly as the server's local rtree.Tree.Nearest would. kNN is
// pinned to server-side execution: best-first traversal pops a global
// priority queue whose every step depends on all previous pops, so a
// client-side (offload) traversal would degenerate into one dependent
// chunk-read round trip per visited node — the adaptive switch therefore
// only ever picks fast messaging or the fetch/mailbox path for it (see
// adaptive.Switch.DecideServerSide and DESIGN.md §5.13).
func (c *Client) Nearest(p *sim.Proc, k int, x, y float64) ([]rtree.Neighbor, Method, error) {
	c.stats.KNNSearches.Inc()
	m := c.pinServerSide(c.cfg.Forced)
	if c.cfg.Adaptive {
		m = c.decideServerSide(p)
	}
	var (
		items []wire.Item
		err   error
	)
	switch m {
	case MethodTCP:
		c.stats.TCPSearches.Inc()
		var resp wire.Response
		resp, err = c.roundTripTCP(p, wire.KNNRequest(c.nextID(), k, x, y))
		if err == nil {
			items, err = knnStatus(resp)
		}
	case MethodFetch:
		c.stats.FetchSearches.Inc()
		items, err = c.knnFetch(p, k, x, y)
	default:
		m = MethodFast
		c.stats.FastSearches.Inc()
		items, err = c.knnFast(p, k, x, y)
	}
	if err != nil {
		return nil, m, err
	}
	return proto.NeighborsOfItems(items, x, y), m, nil
}

// pinServerSide maps a forced method onto one a kNN can execute: offload
// has no kNN path, so a forced-offload client runs its kNN fast.
func (c *Client) pinServerSide(m Method) Method {
	switch m {
	case MethodTCP:
		return MethodTCP
	case MethodFetch:
		return MethodFetch
	default:
		return MethodFast
	}
}

// decideServerSide is decide for operations pinned to the server: the
// switch consumes heartbeats and keeps its window bookkeeping current, but
// never opens or spends an offload window, leaving only the fetch-vs-fast
// choice. A fetch verdict without a mailbox degrades to fast.
func (c *Client) decideServerSide(p *sim.Proc) Method {
	if c.sw.DecideServerSide(p.Now(), c.readHeartbeatBoth, c.clearHeartbeat) == adaptive.ChooseFetch &&
		c.ep.MailboxMem != nil {
		return MethodFetch
	}
	return MethodFast
}

// knnFast sends the kNN over the request ring (or TCP endpoint) and
// collects the segmented response.
func (c *Client) knnFast(p *sim.Proc, k int, x, y float64) ([]wire.Item, error) {
	resp, err := c.roundTrip(p, wire.KNNRequest(c.nextID(), k, x, y))
	if err != nil {
		return nil, err
	}
	return knnStatus(resp)
}

// knnFetch executes the kNN through the fetch/mailbox path, mirroring
// searchFetch: descriptor or inline answer, one-sided slot pull, and a
// fast-messaging fallback when the pull exhausts its retry budget.
func (c *Client) knnFetch(p *sim.Proc, k int, x, y float64) ([]wire.Item, error) {
	if c.ep.MailboxMem == nil || c.ep.FetchQP == nil {
		return c.knnFast(p, k, x, y)
	}
	req := wire.KNNRequest(c.nextID(), k, x, y)
	req.Type = wire.MsgKNNFetch
	desc, resp, haveDesc, err := c.roundTripFetch(p, req)
	if err != nil {
		return nil, err
	}
	if !haveDesc {
		c.stats.FetchInline.Inc()
		return knnStatus(resp)
	}
	if desc.Status != wire.StatusOK {
		return nil, fmt.Errorf("%w: knn status %d", ErrServer, desc.Status)
	}
	items, err := c.pullMailbox(p, desc)
	if err != nil {
		c.stats.FetchFallbacks.Inc()
		return c.knnFast(p, k, x, y)
	}
	return items, nil
}

// knnStatus maps a kNN response to its items or a typed error.
func knnStatus(resp wire.Response) ([]wire.Item, error) {
	if resp.Status != wire.StatusOK {
		return nil, proto.StatusError(resp.Status, "knn")
	}
	return resp.Items, nil
}
