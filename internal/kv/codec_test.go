package kv

import (
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/catfish-db/catfish/internal/btree"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// edgeKeys are the keys whose float64 reading is least like an integer: the
// bounds, the first integer a float64 cannot hold, the sign bit alone (−0),
// infinities and NaN patterns, quiet and signalling, of both signs.
var edgeKeys = []uint64{
	0,
	1,
	1<<53 + 1,
	1 << 63, // −0
	math.MaxUint64,
	math.MaxInt64,
	0x7FF0000000000000, // +Inf
	0xFFF0000000000000, // −Inf
	0x7FF8000000000000, // quiet NaN
	0x7FF0000000000001, // signalling NaN
	0xFFF8000000000001, // negative quiet NaN with payload
	0x7FF4000000000000, // signalling NaN, other payload
}

// TestKeyCodecEdgeKeys puts, gets, ranges and deletes the edge keys through a
// simulated server over a B+-tree, by fast messaging and by the offloaded
// walk, and checks every answer against a map: every key's bits survive the
// request rect, the response item and the walk.
func TestKeyCodecEdgeKeys(t *testing.T) {
	for _, method := range []Method{MethodFast, MethodOffload} {
		t.Run(method.String(), func(t *testing.T) {
			r := newRig(t, rigOpts{})
			c := r.newClient(t, ClientConfig{Forced: method})
			model := map[uint64]uint64{}
			r.e.Spawn("driver", func(p *sim.Proc) {
				defer r.e.Stop()
				for i, k := range edgeKeys {
					if err := c.Put(p, k, uint64(i)); err != nil {
						t.Errorf("put %#x: %v", k, err)
						return
					}
					model[k] = uint64(i)
				}
				// A put of a present key overwrites it.
				for _, k := range edgeKeys[:4] {
					if err := c.Put(p, k, ^k); err != nil {
						t.Errorf("overwrite %#x: %v", k, err)
						return
					}
					model[k] = ^k
				}
				checkModel(t, p, c, model)
				// Delete half the keys, then each again: absent now.
				for i, k := range edgeKeys {
					if i%2 == 1 {
						continue
					}
					if err := c.Delete(p, k); err != nil {
						t.Errorf("delete %#x: %v", k, err)
					}
					if err := c.Delete(p, k); !errors.Is(err, ErrNotFound) {
						t.Errorf("delete of absent %#x: %v, want ErrNotFound", k, err)
					}
					delete(model, k)
				}
				checkModel(t, p, c, model)
			})
			if err := r.e.Run(); err != nil {
				t.Fatal(err)
			}
			if err := r.tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if r.tree.Len() != len(model) {
				t.Errorf("tree holds %d keys, the model %d", r.tree.Len(), len(model))
			}
		})
	}
}

// checkModel requires every edge key's Get, point and batched, a range over
// all keys and one between two edge keys to answer as model does.
func checkModel(t *testing.T, p *sim.Proc, c *Client, model map[uint64]uint64) {
	t.Helper()
	batch := c.GetBatch(p, edgeKeys[:8], nil)
	for i, k := range edgeKeys {
		v, _, err := c.Get(p, k)
		want, ok := model[k]
		if !ok {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("get of absent %#x: %d, %v", k, v, err)
			}
		} else if err != nil || v != want {
			t.Errorf("get %#x = %d, %v; want %d", k, v, err, want)
		}
		if i < len(batch) && (batch[i].Val != v || (batch[i].Err == nil) != (err == nil)) {
			t.Errorf("batched get %#x = %+v, unbatched (%d, %v)", k, batch[i], v, err)
		}
	}
	for _, q := range [][2]uint64{{0, math.MaxUint64}, {1 << 53, 0x7FF8000000000000}} {
		var want, got []uint64
		for k := range model {
			if q[0] <= k && k <= q[1] {
				want = append(want, k)
			}
		}
		slices.Sort(want)
		if _, err := c.Range(p, q[0], q[1], func(k, v uint64) bool {
			if v != model[k] {
				t.Errorf("range %#x: pair %#x = %d, want %d", q, k, v, model[k])
			}
			got = append(got, k)
			return true
		}); err != nil {
			t.Errorf("range %#x: %v", q, err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("range %#x = %#x, want %#x", q, got, want)
		}
	}
}

// TestStoreRefusesMoveAndKNN: a MOVE and a kNN reach a B+-tree server raw —
// alone and batched — and are answered StatusError without touching the
// tree, while the client core refuses them with ErrIndex before sending.
func TestStoreRefusesMoveAndKNN(t *testing.T) {
	r := newRig(t, rigOpts{keys: 500})
	c := r.newClient(t, ClientConfig{Forced: MethodFast})
	move := proto.BatchOp{Type: wire.MsgMove, Rect: proto.KeyRange(10, 10), Rect2: proto.KeyRange(11, 11), Ref: 5}
	knn := proto.BatchOp{Type: wire.MsgKNN, Rect: proto.KeyRange(10, 10), Ref: 3}
	r.e.Spawn("driver", func(p *sim.Proc) {
		defer r.e.Stop()
		o := c.On(p)
		for _, ops := range [][]proto.BatchOp{{move}, {knn}, {move, knn}} {
			for _, res := range o.ExecBatch(ops, nil) {
				if !errors.Is(res.Err, ErrServer) || len(res.Items) != 0 {
					t.Errorf("%d ops: %+v, want a server error", len(ops), res)
				}
			}
		}
		if err := o.Move(move.Rect, move.Rect2, move.Ref); !errors.Is(err, proto.ErrIndex) {
			t.Errorf("Move: %v, want ErrIndex", err)
		}
		if _, _, err := o.Nearest(3, 0, 0); !errors.Is(err, proto.ErrIndex) {
			t.Errorf("Nearest: %v, want ErrIndex", err)
		}
		if v, _, err := c.Get(p, 10); err != nil || v != 5 {
			t.Errorf("get 10 = %d, %v after the refused MOVE", v, err)
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := r.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := r.srv.Stats(); st.Moves != 2 || st.KNNs != 2 || st.Inserts+st.Deletes != 0 || r.tree.Len() != 500 {
		t.Errorf("server counted %d moves, %d kNNs, %d writes; tree holds %d keys", st.Moves, st.KNNs, st.Inserts+st.Deletes, r.tree.Len())
	}
}

// TestKeyOpsRefuseRTree: the key codec over a client of an R-tree server
// refuses every operation with ErrIndex rather than walking R-tree chunks
// as B+-tree nodes.
func TestKeyOpsRefuseRTree(t *testing.T) {
	e := sim.New(1)
	net := fabric.NewNetwork(e, netmodel.InfiniBand100G)
	reg, err := region.New(64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.New(reg, rtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Insert(geo.PointRect(0, 0), 1); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: e, Host: net.NewHost("server", sim.NewCPU(e, 1)), Tree: tree,
		Cost: netmodel.DefaultCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	host := net.NewHost("client", sim.NewCPU(e, 1))
	ep, err := srv.Connect(host, net, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{Engine: e, Host: host, Endpoint: ep, Forced: MethodOffload})
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("driver", func(p *sim.Proc) {
		defer e.Stop()
		_, _, gerr := c.Get(p, 0)
		_, rerr := c.Range(p, 0, 9, func(uint64, uint64) bool { return true })
		batch := c.GetBatch(p, []uint64{0, 1}, nil)
		for i, err := range []error{gerr, rerr, c.Put(p, 0, 1), c.Delete(p, 0), batch[0].Err, batch[1].Err} {
			if !errors.Is(err, proto.ErrIndex) {
				t.Errorf("op %d: %v, want ErrIndex", i, err)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Searches+st.Inserts+st.Deletes != 0 {
		t.Errorf("refused key operations reached the server: %+v", st)
	}
}

// TestStoreCharge: a found point get reads the tree's height in nodes for
// one result — the charge kv's own server made — a miss reads as many for
// none, and a range adds a node per MaxEntries pairs.
func TestStoreCharge(t *testing.T) {
	reg, err := region.New(1<<10, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := btree.New(reg, btree.Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 2000; k++ {
		if err := tree.Insert(2*k, k); err != nil {
			t.Fatal(err)
		}
	}
	s, h := NewStore(tree), tree.Height()
	for _, c := range []struct {
		from, to uint64
		want     rtree.OpStats
	}{
		{40, 40, rtree.OpStats{NodesRead: h, Results: 1}},
		{41, 41, rtree.OpStats{NodesRead: h}},
		{0, 99, rtree.OpStats{NodesRead: h + 50/16, Results: 50}},
	} {
		req := wire.Request{Type: wire.MsgSearch, Rect: proto.KeyRange(c.from, c.to)}
		items, st, err := s.Query(req, nil)
		if err != nil || st != c.want || len(items) != c.want.Results*wire.ItemSize {
			t.Errorf("query [%d, %d]: %+v, %d bytes, %v; want %+v", c.from, c.to, st, len(items), err, c.want)
		}
	}
	st, err := s.Insert(proto.KeyRange(41, 41), 7)
	if err != nil || st.NodesRead != h || st.NodesWritten < 1 {
		t.Errorf("insert: %+v, %v", st, err)
	}
}
