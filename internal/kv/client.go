package kv

import (
	"github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// Method identifies how a read executed: the access-method vocabulary the
// R-tree clients use.
type Method = proto.Method

// Read methods.
const (
	MethodFast    = proto.MethodFast
	MethodOffload = proto.MethodOffload
)

// Errors.
var (
	ErrServer   = proto.ErrServer
	ErrNotFound = proto.ErrNotFound
)

// Ops is the key codec over one client's operations, on either transport: a
// Get is a search of [key, key], a Range a search of [from, to], a Put an
// insert (the store's upsert) and a Delete a delete, each pair coming back
// as an item. Reads take Algorithm 1's choice, by fast messaging or by the
// B+-tree walk the server announced; writes always travel by messaging.
type Ops[T proto.Transport] struct{ o proto.Ops[T] }

// On returns the key operations over o. Against a server that serves no
// B+-tree every operation fails with proto.ErrIndex.
func On[T proto.Transport](o proto.Ops[T]) Ops[T] { return Ops[T]{o} }

func (k Ops[T]) check() error {
	if k.o.Index() != wire.IndexBTree {
		return proto.ErrIndex
	}
	return nil
}

// Get returns the value stored under key.
func (k Ops[T]) Get(key uint64) (uint64, Method, error) {
	items, m, err := k.search(key, key)
	switch {
	case err != nil:
		return 0, m, err
	case len(items) == 0:
		return 0, m, ErrNotFound
	}
	return items[0].Ref, m, nil
}

// Range invokes fn for every key in [from, to] in ascending order until fn
// returns false; the pairs are delivered once the whole read is in.
func (k Ops[T]) Range(from, to uint64, fn func(key, val uint64) bool) (Method, error) {
	items, m, err := k.search(from, to)
	for _, it := range items {
		if key, _ := proto.KeyBounds(it.Rect); !fn(key, it.Ref) {
			break
		}
	}
	return m, err
}

func (k Ops[T]) search(from, to uint64) ([]wire.Item, Method, error) {
	if err := k.check(); err != nil {
		return nil, 0, err
	}
	return k.o.Search(proto.KeyRange(from, to))
}

// Put stores val under key, overwriting a present one.
func (k Ops[T]) Put(key, val uint64) error {
	if err := k.check(); err != nil {
		return err
	}
	return k.o.Insert(proto.KeyRange(key, key), val)
}

// Delete removes key; an absent key is ErrNotFound.
func (k Ops[T]) Delete(key uint64) error {
	if err := k.check(); err != nil {
		return err
	}
	return k.o.Delete(proto.KeyRange(key, key), 0)
}

// GetResult is the outcome of one batched Get, in submission order.
type GetResult struct {
	Method Method
	Val    uint64
	Err    error
}

// GetBatch executes point gets as one client batch (proto.Ops.ExecBatch):
// each key consults the adaptive switch individually, messaging-routed gets
// share one container while offload-routed ones walk the tree overlapped
// with it, and a batch of one is a plain Get.
func (k Ops[T]) GetBatch(keys []uint64, results []GetResult) []GetResult {
	results = results[:0]
	if err := k.check(); err != nil {
		for range keys {
			results = append(results, GetResult{Err: err})
		}
		return results
	}
	ops := make([]proto.BatchOp, len(keys))
	for i, key := range keys {
		ops[i] = proto.BatchOp{Type: wire.MsgSearch, Rect: proto.KeyRange(key, key)}
	}
	for _, r := range k.o.ExecBatch(ops, nil) {
		g := GetResult{Method: r.Method, Err: r.Err}
		switch {
		case g.Err != nil:
		case len(r.Items) == 0:
			g.Err = ErrNotFound
		default:
			g.Val = r.Items[0].Ref
		}
		results = append(results, g)
	}
	return results
}

// ClientConfig configures a Client: the simulated client's, its Endpoint
// one a server.Server over a Store returned.
type ClientConfig = client.Config

// ClientStats is a snapshot of a client's counters.
type ClientStats = telemetry.ClientSnapshot

// Client is a key-value client on the simulated fabric: the simulated
// client driven through the key codec by the process each call names.
type Client struct{ *client.Client }

// NewClient validates the configuration and returns a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	c, err := client.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Client{c}, nil
}

// Get returns the value stored under key, read as Algorithm 1 chooses.
func (c *Client) Get(p *sim.Proc, key uint64) (uint64, Method, error) {
	return On(c.On(p)).Get(key)
}

// Range invokes fn for every key in [from, to] in ascending order.
func (c *Client) Range(p *sim.Proc, from, to uint64, fn func(key, val uint64) bool) (Method, error) {
	return On(c.On(p)).Range(from, to, fn)
}

// Put stores val under key.
func (c *Client) Put(p *sim.Proc, key, val uint64) error { return On(c.On(p)).Put(key, val) }

// Delete removes key.
func (c *Client) Delete(p *sim.Proc, key uint64) error { return On(c.On(p)).Delete(key) }

// GetBatch executes point gets as one client batch.
func (c *Client) GetBatch(p *sim.Proc, keys []uint64, results []GetResult) []GetResult {
	return On(c.On(p)).GetBatch(keys, results)
}
