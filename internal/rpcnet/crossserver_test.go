package rpcnet

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	simclient "github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	simserver "github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// serverOps is clientOps plus the failover control message: everything a
// client can ask of one server, on either transport.
type serverOps interface {
	clientOps
	Promote(epoch uint64) error
}

var (
	_ serverOps = (*Client)(nil)
	_ serverOps = simclient.Handle{}
)

const (
	crossServerItems = 1200
	crossServerSlots = 2
)

// statusClass names the status an operation came back with.
func statusClass(err error) string {
	switch {
	case errors.Is(err, replica.ErrNotPrimary):
		return "not-primary"
	case errors.Is(err, replica.ErrUnavailable):
		return "unavailable"
	case errors.Is(err, replica.ErrFenced):
		return "fenced"
	}
	return errClass(err)
}

// runCrossServer drives one server through a client forced to fast
// messaging and one forced to fetch and returns what they observed: per
// operation its status and its result — a search's as a sorted ref set, a
// kNN's in rank order. kill, called half way, kills the server; everything
// is then asked again.
func runCrossServer(fast, fetch serverOps, kill func()) []string {
	var obs []string
	logf := func(format string, args ...any) { obs = append(obs, fmt.Sprintf(format, args...)) }
	result := func(what string, sorted bool, items []wire.Item, err error) {
		refs := make([]uint64, len(items))
		for i, it := range items {
			refs[i] = it.Ref
		}
		if sorted {
			sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
		}
		if len(refs) > 10 {
			logf("%s: %s, %d items %v…%v", what, statusClass(err), len(refs), refs[:5], refs[len(refs)-5:])
			return
		}
		logf("%s: %s %v", what, statusClass(err), refs)
	}
	rng := rand.New(rand.NewSource(31))
	a, b, c := randRect(rng, 0.01), randRect(rng, 0.01), randRect(rng, 0.01)
	small, large := geo.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.45, MaxY: 0.45}, geo.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.6}
	const ref = 1 << 40
	search := func(cl serverOps, what string, q geo.Rect) {
		items, _, err := cl.Search(q)
		result(what, true, items, err)
	}
	knn := func(cl serverOps, what string, k int) {
		nbrs, _, err := cl.Nearest(k, 0.5, 0.5)
		result(what, false, proto.ItemsOfNeighbors(nbrs), err)
	}
	batch := func(what string, ops ...BatchOp) {
		for i, res := range fast.ExecBatch(ops, nil) {
			result(fmt.Sprintf("%s[%d]", what, i), ops[i].Type == wire.MsgSearch, res.Items, res.Err)
		}
	}
	for _, phase := range []string{"live", "killed"} {
		search(fast, phase+" search", small)
		search(fast, phase+" search-all", wholePlane)
		knn(fast, phase+" knn-1", 1)
		knn(fast, phase+" knn-300", 300)
		search(fetch, phase+" fetch-inline", small)
		search(fetch, phase+" fetch-delivered", large)
		knn(fetch, phase+" knnfetch-inline", 3)
		knn(fetch, phase+" knnfetch-delivered", 300)
		logf("%s insert: %s", phase, statusClass(fast.Insert(a, ref)))
		logf("%s insert: %s", phase, statusClass(fast.Insert(b, ref+1)))
		logf("%s delete-hit: %s", phase, statusClass(fast.Delete(b, ref+1)))
		logf("%s delete-miss: %s", phase, statusClass(fast.Delete(b, ref+1)))
		logf("%s move-hit: %s", phase, statusClass(fast.Move(a, c, ref)))
		logf("%s move-miss: %s", phase, statusClass(fast.Move(a, b, ref+2)))
		search(fast, phase+" search-moved", c)
		batch(phase+" batch-readonly",
			BatchOp{Type: wire.MsgSearch, Rect: small},
			BatchOp{Type: wire.MsgKNN, Rect: geo.PointRect(0.1, 0.9), Ref: 5},
			BatchOp{Type: wire.MsgSearch, Rect: wholePlane})
		batch(phase+" batch-mixed",
			BatchOp{Type: wire.MsgSearch, Rect: c},
			BatchOp{Type: wire.MsgMove, Rect: c, Rect2: a, Ref: ref},
			BatchOp{Type: wire.MsgDelete, Rect: b, Ref: ref + 2},
			BatchOp{Type: wire.MsgDelete, Rect: b, Ref: ref + 2},
			BatchOp{Type: wire.MsgInsert, Rect: b, Ref: ref + 3},
			BatchOp{Type: wire.MsgKNN, Rect: geo.PointRect(a.Center()), Ref: 2},
			BatchOp{Type: wire.MsgSearch, Rect: c})
		over := map[string]int{}
		for _, res := range fast.ExecBatch(make([]BatchOp, wire.MaxBatch+1), nil) {
			over[statusClass(res.Err)]++
		}
		logf("%s batch-oversized: %v", phase, over)
		logf("%s promote: %s", phase, statusClass(fast.Promote(2)))
		if phase == "live" {
			kill()
		}
	}
	return obs
}

// runCrossBackup is the script for a server that starts as a backup: client
// writes, alone and batched, are refused until a promotion, reads are not.
func runCrossBackup(cl serverOps) []string {
	var obs []string
	r := geo.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.301, MaxY: 0.301}
	const ref = 1 << 41
	write := func(phase string) {
		obs = append(obs,
			phase+" insert: "+statusClass(cl.Insert(r, ref)),
			phase+" move: "+statusClass(cl.Move(r, r, ref)),
			phase+" delete: "+statusClass(cl.Delete(r, ref)))
		for i, res := range cl.ExecBatch([]BatchOp{
			{Type: wire.MsgInsert, Rect: r, Ref: ref + 1},
			{Type: wire.MsgSearch, Rect: r},
			{Type: wire.MsgDelete, Rect: r, Ref: ref + 1},
		}, nil) {
			obs = append(obs, fmt.Sprintf("%s batch[%d]: %s, %d items", phase, i, statusClass(res.Err), len(res.Items)))
		}
	}
	write("backup")
	obs = append(obs, "promote: "+statusClass(cl.Promote(2)))
	write("promoted")
	return obs
}

// crossOutcome is what one transport's run of a cross-server script left
// behind: the clients' observations, the tree, and the core's counters.
type crossOutcome struct {
	obs   []string
	tree  []rtree.Entry
	stats telemetry.ServerSnapshot
}

// crossFetch is the mailbox geometry both servers of a pair get.
type crossFetch struct{ slots, slotChunks, inlineMax int }

// runOnBoth builds a loopback TCP server and a simulated server over trees
// from loadTree, attaches a fast-messaging and a fetch client to each, and
// runs script against both pairs.
func runOnBoth(t *testing.T, loadTree func() *rtree.Tree, f crossFetch, backup bool,
	script func(fast, fetch serverOps, kill func()) []string) (tcp, simulated crossOutcome) {
	t.Helper()
	contents := func(tree *rtree.Tree) []rtree.Entry {
		all, _, err := tree.SearchCollect(wholePlane)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Ref < all[j].Ref })
		return all
	}

	ncfg := ServerConfig{FetchSlots: f.slots, FetchSlotChunks: f.slotChunks, FetchInlineMax: f.inlineMax}
	if backup {
		ncfg.Replica = &ReplicaConfig{}
	}
	tree := loadTree()
	nsrv, err := Listen("127.0.0.1:0", tree, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	go nsrv.Serve() //nolint:errcheck // returns on Close
	tcp.obs = script(dial(t, nsrv, ClientConfig{Forced: MethodFast}), dial(t, nsrv, ClientConfig{Forced: MethodFetch}), nsrv.Kill)
	nsrv.Close()
	tcp.tree, tcp.stats = contents(tree), nsrv.Stats().ServerSnapshot

	e := sim.New(7)
	net := fabric.NewNetwork(e, netmodel.InfiniBand100G)
	scfg := simserver.Config{
		Engine: e, Host: net.NewHost("server", sim.NewCPU(e, 8)), Tree: loadTree(), Cost: netmodel.DefaultCostModel(),
		FetchSlots: f.slots, FetchSlotChunks: f.slotChunks, FetchInlineMax: f.inlineMax,
	}
	if backup {
		scfg.Replica = replica.NewState(1, false)
	}
	ssrv, err := simserver.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	attach := func(name string, forced Method) *simclient.Client {
		host := net.NewHost(name, sim.NewCPU(e, 4))
		ep, err := ssrv.Connect(host, net, 16)
		if err != nil {
			t.Fatal(err)
		}
		c, err := simclient.New(simclient.Config{Engine: e, Host: host, Endpoint: ep,
			Cost: netmodel.DefaultCostModel(), Forced: forced, Fetch: forced == MethodFetch})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	fast, fetch := attach("fast", MethodFast), attach("fetch", MethodFetch)
	e.Spawn("script", func(p *sim.Proc) {
		defer e.Stop()
		simulated.obs = script(fast.On(p), fetch.On(p), ssrv.Kill)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	simulated.tree, simulated.stats = contents(ssrv.Tree()), ssrv.Stats()
	return tcp, simulated
}

// TestServerCrossTransport runs one script against both adapters of the one
// server core — a simulated server and a loopback TCP server bulk-loaded
// with the same dataset — and requires the same result sets and statuses
// from both, the same final tree contents, and equal snapshots of the
// counters the core keeps for both. The script covers search and kNN, both
// fetch variants delivered through the mailbox and inline, insert, delete,
// MOVE of a known and an unknown ref, read-only, mixed and oversized
// batches, a promotion on a server that is no replica, all of it again
// after Kill, and — on a second pair of servers — writes at a backup before
// and after its promotion.
func TestServerCrossTransport(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]rtree.Entry, crossServerItems)
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
	backupScript := func(fast, _ serverOps, _ func()) []string { return runCrossBackup(fast) }

	for _, tc := range []struct {
		name   string
		backup bool
		script func(fast, fetch serverOps, kill func()) []string
		want   []string // the log is only worth comparing if the script did what it says
	}{
		{"kill", false, runCrossServer, []string{
			fmt.Sprintf("live search-all: ok, %d items", crossServerItems),
			"live delete-miss: not-found", "live promote: server", "killed move-hit: unavailable",
			"killed batch-mixed[4]: unavailable", "killed promote: unavailable",
			fmt.Sprintf("batch-oversized: map[server:%d]", wire.MaxBatch+1)}},
		{"backup", true, backupScript, []string{
			"backup move: not-primary", "backup batch[0]: not-primary", "backup batch[1]: ok, 0 items",
			"promote: ok", "promoted delete: ok", "promoted batch[1]: ok, 1 items"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tcp, sim := runOnBoth(t, loadTree, crossFetch{crossServerSlots, 8, 16}, tc.backup, tc.script)
			if !reflect.DeepEqual(tcp.obs, sim.obs) {
				t.Errorf("transports observed different behaviour:\n tcp: %s\n sim: %s",
					strings.Join(tcp.obs, "\n      "), strings.Join(sim.obs, "\n      "))
			}
			log := strings.Join(tcp.obs, "\n")
			for _, want := range tc.want {
				if !strings.Contains(log, want) {
					t.Errorf("log lacks %q:\n%s", want, log)
				}
			}
			if !reflect.DeepEqual(tcp.tree, sim.tree) {
				t.Errorf("final trees differ: %d entries over TCP, %d on the sim", len(tcp.tree), len(sim.tree))
			}
			if tcp.stats != sim.stats {
				t.Errorf("shared counters differ:\n tcp: %+v\n sim: %+v", tcp.stats, sim.stats)
			}
			if !tc.backup && (tcp.stats.FetchBytes == 0 || tcp.stats.FetchInline == 0 || tcp.stats.Segments == 0) {
				t.Errorf("script missed a delivery: %+v", tcp.stats)
			}
		})
	}
}

// TestMailboxCapacityBoundary pins the one capacity check on both
// transports: a result that exactly fills a slot's payload room is delivered
// through the mailbox, one item more is sent inline. Slots are one 4 KB
// chunk — 3 584 payload bytes less the 16-byte slot header — so 89 items
// (3 560 B) fit and 90 (3 600 B) do not. The TCP server used to subtract the
// header twice and push the last 16 bytes' worth of results inline.
func TestMailboxCapacityBoundary(t *testing.T) {
	lineTree := func() *rtree.Tree {
		reg, err := region.New(1<<10, 4096)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
		for i := 0; i < 200 && err == nil; i++ {
			x := (float64(i) + 0.5) / 1000
			_, err = tree.Insert(geo.Rect{MinX: x, MaxX: x, MinY: 0.5, MaxY: 0.5}, uint64(i))
		}
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	script := func(_, fetch serverOps, _ func()) []string {
		var obs []string
		for _, n := range []int{89, 90} {
			before := fetch.Stats()
			items, m, err := fetch.Search(firstK(n))
			after := fetch.Stats()
			obs = append(obs, fmt.Sprintf("%d items: %v %s, %d returned, +%d B pulled, +%d inline",
				n, m, statusClass(err), len(items), after.FetchBytes-before.FetchBytes, after.FetchInline-before.FetchInline))
		}
		return obs
	}
	tcp, sim := runOnBoth(t, lineTree, crossFetch{slots: 2, slotChunks: 1, inlineMax: 8}, false, script)
	want := []string{
		"89 items: fetch ok, 89 returned, +3560 B pulled, +0 inline",
		"90 items: fetch ok, 90 returned, +0 B pulled, +1 inline",
	}
	if !reflect.DeepEqual(tcp.obs, want) || !reflect.DeepEqual(sim.obs, want) {
		t.Errorf("capacity boundary:\n tcp: %q\n sim: %q\nwant: %q", tcp.obs, sim.obs, want)
	}
	for name, st := range map[string]telemetry.ServerSnapshot{"tcp": tcp.stats, "sim": sim.stats} {
		if st.FetchSearches != 2 || st.FetchInline != 1 || st.FetchBytes != 89*wire.ItemSize {
			t.Errorf("%s server: %d fetch searches, %d inline, %d B delivered; want 2, 1, %d",
				name, st.FetchSearches, st.FetchInline, st.FetchBytes, 89*wire.ItemSize)
		}
	}
}
