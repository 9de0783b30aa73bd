package rpcnet

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	simclient "github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	simserver "github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// clientOps is the operation set a single-server client exposes through
// either adapter: *Client over real sockets, client.Client.On(p) on the
// simulated fabric. Both are the same proto.Ops methods.
type clientOps interface {
	Search(q geo.Rect) ([]wire.Item, proto.Method, error)
	Insert(r geo.Rect, ref uint64) error
	Delete(r geo.Rect, ref uint64) error
	Move(from, to geo.Rect, ref uint64) error
	Nearest(k int, x, y float64) ([]rtree.Neighbor, proto.Method, error)
	ExecBatch(ops []proto.BatchOp, results []proto.BatchResult) []proto.BatchResult
	Stats() telemetry.ClientSnapshot
}

var (
	_ clientOps = (*Client)(nil)
	_ clientOps = simclient.Handle{}
)

const (
	crossClientItems  = 1500
	crossInlineMax    = 16
	crossClientSlots  = 16
	crossClientInsRef = 1 << 32
)

// crossClientScript is the op sequence every variant replays, in groups: a
// group runs op by op through the unbatched API, or as one ExecBatch. Reads
// and writes never share a group with a search — an offloaded search in a
// batch traverses while the server applies the batch's writes, which real
// sockets and the simulation would interleave differently — but kNN, always
// server-executed in container order, rides with the writes.
func crossClientScript() [][]BatchOp {
	rng := rand.New(rand.NewSource(77))
	ins := make([]geo.Rect, 4)
	for i := range ins {
		ins[i] = randRect(rng, 0.01)
	}
	moved, ghost := randRect(rng, 0.01), randRect(rng, 0.01)
	search := func(r geo.Rect) BatchOp { return BatchOp{Type: wire.MsgSearch, Rect: r} }
	knn := func(k int) BatchOp {
		return BatchOp{Type: wire.MsgKNN, Rect: geo.PointRect(rng.Float64(), rng.Float64()), Ref: uint64(k)}
	}
	var reads []BatchOp
	for i := 0; i < 7; i++ {
		reads = append(reads, search(randRect(rng, rng.Float64()*0.3)))
	}
	reads = append(reads, search(wholePlane)) // past the inline threshold and one segment
	return [][]BatchOp{
		reads,
		{
			{Type: wire.MsgInsert, Rect: ins[0], Ref: crossClientInsRef},
			{Type: wire.MsgInsert, Rect: ins[1], Ref: crossClientInsRef + 1},
			{Type: wire.MsgInsert, Rect: ins[2], Ref: crossClientInsRef + 2},
			knn(1),
			{Type: wire.MsgDelete, Rect: ins[0], Ref: crossClientInsRef},
			{Type: wire.MsgDelete, Rect: ins[3], Ref: crossClientInsRef + 3}, // never inserted
			{Type: wire.MsgMove, Rect: ins[1], Rect2: moved, Ref: crossClientInsRef + 1},
			{Type: wire.MsgMove, Rect: ins[3], Rect2: ghost, Ref: crossClientInsRef + 4}, // unknown ref: upsert
		},
		{search(ins[0]), search(ins[1]), search(ins[2]), search(moved), search(ghost), knn(10), knn(crossClientItems + 500)},
		{search(moved)}, // a batch of one: the unbatched path
		{knn(10)},
		{{Type: wire.MsgDelete, Rect: ghost, Ref: crossClientInsRef + 4}},
	}
}

// errClass names the errors.Is class callers can match on either transport.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNotFound):
		return "not-found"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrServer):
		return "server"
	}
	return "other: " + err.Error()
}

// runCrossClient replays the script on c and returns the observation log:
// per op its method, error class and items — a search's as a sorted ref
// set (traversal order is the transport's own), a kNN's in rank order —
// then the op-count counters, which must not depend on the transport. pause,
// when non-nil, runs between groups: a caching client's reads are allowed to
// trail a write by one lease, so its script waits the lease out.
func runCrossClient(c clientOps, batched bool, pause func()) []string {
	var obs []string
	logf := func(format string, args ...any) { obs = append(obs, fmt.Sprintf(format, args...)) }
	observe := func(op BatchOp, m proto.Method, items []wire.Item, err error) {
		refs := make([]uint64, len(items))
		for i, it := range items {
			refs[i] = it.Ref
		}
		if op.Type == wire.MsgSearch {
			sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
		}
		if len(refs) > 12 {
			logf("op %d: %v %s %d items %v…%v", op.Type, m, errClass(err), len(refs), refs[:6], refs[len(refs)-6:])
			return
		}
		logf("op %d: %v %s %v", op.Type, m, errClass(err), refs)
	}
	var results []BatchResult
	for _, group := range crossClientScript() {
		if pause != nil {
			pause()
		}
		if batched {
			results = c.ExecBatch(group, results)
			for i, res := range results {
				observe(group[i], res.Method, res.Items, res.Err)
			}
			continue
		}
		for _, op := range group {
			switch op.Type {
			case wire.MsgInsert:
				observe(op, 0, nil, c.Insert(op.Rect, op.Ref))
			case wire.MsgDelete:
				observe(op, 0, nil, c.Delete(op.Rect, op.Ref))
			case wire.MsgMove:
				observe(op, 0, nil, c.Move(op.Rect, op.Rect2, op.Ref))
			case wire.MsgKNN:
				x, y := op.Rect.Center()
				nbrs, m, err := c.Nearest(int(op.Ref), x, y)
				observe(op, m, proto.ItemsOfNeighbors(nbrs), err)
			default:
				items, m, err := c.Search(op.Rect)
				observe(op, m, items, err)
			}
		}
	}
	// More operations than a container can count: refused whole, client-side.
	before := c.Stats()
	over := c.ExecBatch(make([]BatchOp, wire.MaxBatch+1), nil)
	classes := map[string]int{}
	for _, res := range over {
		classes[errClass(res.Err)]++
	}
	logf("oversize batch: %v, sent +%d", classes, c.Stats().BatchesSent-before.BatchesSent)

	st := c.Stats()
	logf("writes: %d inserts, %d deletes, %d moves", st.Inserts, st.Deletes, st.Moves)
	logf("reads: %d knn, %d fast, %d fetch, %d offload", st.KNNSearches, st.FastSearches, st.FetchSearches, st.OffloadSearches)
	logf("batches: %d carrying %d ops; %d fetch reads answered inline", st.BatchesSent, st.BatchedOps, st.FetchInline)
	return obs
}

// TestClientCrossTransport runs one script through both adapters of the one
// client core — a simulated-fabric client and a real-socket client over
// servers loaded with the same dataset — for every access method, op by op
// and batched, and requires the two observation logs to be identical:
// items, the method reported, the error class, and the op-count counters.
// The script covers MOVE of a known and an unknown ref, a delete that
// misses, kNN with k of 1, 10 and past the dataset, a batch of one, fetch
// with results inline and pulled, fetch against a server without a mailbox
// (degrading to fast), and an oversize batch. Offloading runs single-issue,
// multi-issue (where the demand chunk reads must agree too: with no cache and
// no speculation they are exactly the nodes the query visits) and multi-issue
// with node cache, merge span 4 and prefetching on both sides — there only
// the log is compared, the read counters depending on lease timing and the
// order completions arrive in.
func TestClientCrossTransport(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]rtree.Entry, crossClientItems)
	for i := range data {
		data[i] = rtree.Entry{Rect: randRect(rng, 0.01), Ref: uint64(i)}
	}
	loadTree := func() *rtree.Tree {
		reg, err := region.New(1<<12, 4096)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
		if err == nil {
			err = tree.BulkLoad(append([]rtree.Entry(nil), data...), 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	variants := []struct {
		name       string
		forced     Method
		fetchSlots int
		multi      bool
		cache      int // node-cache capacity; with it merge span 4 and a prefetch budget of 8
	}{
		{name: "fast", forced: MethodFast},
		{name: "offload", forced: MethodOffload},
		{name: "offload-multi", forced: MethodOffload, multi: true},
		{name: "offload-multi-cached-span", forced: MethodOffload, multi: true, cache: 64},
		{name: "fetch", forced: MethodFetch, fetchSlots: crossClientSlots},
		{name: "fetch-nomailbox", forced: MethodFetch},
	}
	for _, v := range variants {
		for _, batched := range []bool{false, true} {
			name := v.name
			if batched {
				name += "-batched"
			}
			t.Run(name, func(t *testing.T) {
				span, prefetch := 0, 0
				var lease time.Duration
				var netPause func()
				if v.cache > 0 {
					span, prefetch, lease = 4, 8, 2*time.Millisecond
					netPause = func() { time.Sleep(2 * lease) }
				}
				srv, err := Listen("127.0.0.1:0", loadTree(), ServerConfig{HeartbeatInterval: lease,
					FetchSlots: v.fetchSlots, FetchInlineMax: crossInlineMax})
				if err != nil {
					t.Fatal(err)
				}
				go srv.Serve() //nolint:errcheck // returns on Close
				defer srv.Close()
				nc := dial(t, srv, ClientConfig{Forced: v.forced, MultiIssue: v.multi,
					NodeCache: v.cache, MergeSpan: span, Prefetch: prefetch})
				netObs := runCrossClient(nc, batched, netPause)

				e := sim.New(7)
				prof := netmodel.InfiniBand100G
				prof.MergeSpan = span
				net := fabric.NewNetwork(e, prof)
				ssrv, err := simserver.New(simserver.Config{
					Engine: e, Host: net.NewHost("server", sim.NewCPU(e, 8)), Tree: loadTree(),
					Cost: netmodel.DefaultCostModel(), Mode: simserver.ModeEvent,
					FetchSlots: v.fetchSlots, FetchInlineMax: crossInlineMax,
				})
				if err != nil {
					t.Fatal(err)
				}
				host := net.NewHost("client", sim.NewCPU(e, 4))
				ep, err := ssrv.Connect(host, net, 16)
				if err != nil {
					t.Fatal(err)
				}
				sc, err := simclient.New(simclient.Config{Engine: e, Host: host, Endpoint: ep,
					Cost: netmodel.DefaultCostModel(), Forced: v.forced, MultiIssue: v.multi,
					NodeCache: v.cache, Prefetch: prefetch, HeartbeatInv: lease})
				if err != nil {
					t.Fatal(err)
				}
				var simObs []string
				e.Spawn("script", func(p *sim.Proc) {
					defer e.Stop()
					var simPause func()
					if lease > 0 {
						simPause = func() { p.Sleep(2 * lease) }
					}
					simObs = runCrossClient(sc.On(p), batched, simPause)
				})
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}

				if !reflect.DeepEqual(netObs, simObs) {
					t.Errorf("transports observed different behaviour:\n net: %s\n sim: %s",
						strings.Join(netObs, "\n      "), strings.Join(simObs, "\n      "))
				}
				// The log is only worth comparing if the script did what it
				// says: reads found data, the miss missed, fetch pulled.
				log := strings.Join(netObs, "\n")
				for _, want := range []string{"not-found", fmt.Sprintf("%d items", crossClientItems+3), "oversize batch: map[server:65536], sent +0"} {
					if !strings.Contains(log, want) {
						t.Errorf("log lacks %q:\n%s", want, log)
					}
				}
				if nf, sf := nc.Stats().NodesFetched, sc.Stats().NodesFetched; v.multi && v.cache == 0 && (nf != sf || nf == 0) {
					t.Errorf("demand chunk reads: %d over sockets, %d on the fabric", nf, sf)
				}
				if v.fetchSlots > 0 {
					if st := nc.Stats(); st.FetchBytes == 0 || st.FetchInline == 0 {
						t.Errorf("fetch variant pulled %d B, %d inline: want both deliveries", st.FetchBytes, st.FetchInline)
					}
				}
			})
		}
	}
}
