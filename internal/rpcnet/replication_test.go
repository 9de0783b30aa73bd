package rpcnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	simclient "github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	simserver "github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// replLog is the observation log a replication script and its peers share;
// over TCP the peers write it from the primary's dispatcher workers.
type replLog struct {
	mu  sync.Mutex
	obs []string
}

func (l *replLog) logf(format string, args ...any) {
	l.mu.Lock()
	l.obs = append(l.obs, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// scriptPeer wraps one transport's Exchange: at the exchanges drop names it
// forwards the batch without its records, and it logs every ack.
type scriptPeer struct {
	name  string
	inner replica.Peer
	drop  map[int]bool
	calls int
	log   *replLog
}

func (p *scriptPeer) Exchange(recs []replica.Record) (wire.ReplAck, error) {
	p.calls++
	sent := recs
	if p.drop[p.calls] {
		sent = nil
	}
	ack, err := p.inner.Exchange(sent)
	p.log.logf("%s exchange %d: %d of %d records, ack status %d epoch %d applied %d, err %v",
		p.name, p.calls, len(sent), len(recs), ack.Status, ack.Epoch, ack.AppliedSeq, err)
	return ack, err
}

// replScript is the gap → resend → stuck → fence script, run against a
// primary replicating to two scriptPeers: backup b1 loses the record of
// write 4 (the resend brings it) and of write 6 twice (the resend cannot:
// b1 is dropped, the write still acknowledged); b2 is promoted before write
// 8, which it fences, and write 9 finds the primary deposed.
func replScript(log *replLog, insert func(geo.Rect, uint64) error, promoteB2 func()) {
	rng := rand.New(rand.NewSource(5))
	for i := uint64(1); i <= 9; i++ {
		if i == 8 {
			promoteB2()
		}
		log.logf("write %d: %s", i, statusClass(insert(randRect(rng, 0.01), 1<<40+i)))
	}
}

// replOutcome is what one transport's run of replScript left behind.
type replOutcome struct {
	obs   []string
	trees [][]rtree.Entry            // primary, b1, b2
	stats []telemetry.ServerSnapshot // the same order
	core  [3]float64                 // the primary's shipped, resends, lag
}

func replTree(t *testing.T) *rtree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	data := make([]rtree.Entry, 400)
	for i := range data {
		data[i] = rtree.Entry{Rect: randRect(rng, 0.01), Ref: uint64(i)}
	}
	reg, err := region.New(1<<10, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
	if err == nil {
		err = tree.BulkLoad(data, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func replContents(t *testing.T, tree *rtree.Tree) []rtree.Entry {
	t.Helper()
	all, _, err := tree.SearchCollect(wholePlane)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Ref < all[j].Ref })
	return all
}

// scriptPeers wraps the transport's peers to b1 and b2 and attaches them.
func scriptPeers(pr *replica.Primary, log *replLog, b1, b2 replica.Peer) {
	pr.Attach(&scriptPeer{name: "b1", inner: b1, drop: map[int]bool{4: true, 7: true, 8: true}, log: log})
	pr.Attach(&scriptPeer{name: "b2", inner: b2, log: log})
}

func replCore(pr *replica.Primary) [3]float64 {
	return [3]float64{float64(pr.Shipped()), float64(pr.Resends()), pr.Lag()}
}

// TestReplicationCrossTransport runs one gap → resend → stuck → fence script
// through the replication core over both transports' Exchange — the sim
// peer, on the primary's proc, and the socket peer, over loopback TCP — and
// requires the same acks, client statuses, final trees and ServerSnapshots.
func TestReplicationCrossTransport(t *testing.T) {
	var tcp, simulated replOutcome

	// TCP: two backups listen first, the primary reaches them by address.
	var srvs []*Server
	var trees []*rtree.Tree
	for i := 0; i < 3; i++ {
		tree := replTree(t)
		srv, err := Listen("127.0.0.1:0", tree, ServerConfig{Replica: &ReplicaConfig{Primary: i == 0}})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve() //nolint:errcheck // returns on Close
		srvs, trees = append(srvs, srv), append(trees, tree)
	}
	var nlog replLog
	scriptPeers(srvs[0].repl, &nlog, &sockPeer{addr: srvs[1].Addr().String()}, &sockPeer{addr: srvs[2].Addr().String()})
	c := dial(t, srvs[0], ClientConfig{})
	replScript(&nlog, c.Insert, func() { srvs[2].repl.State().Promote(2) })
	c.Close()
	tcp.core = replCore(srvs[0].repl)
	for i, srv := range srvs {
		srv.Close()
		tcp.trees = append(tcp.trees, replContents(t, trees[i]))
		tcp.stats = append(tcp.stats, srv.Stats().ServerSnapshot)
	}
	tcp.obs = nlog.obs

	// The simulated fabric: the same three servers, the same script.
	e := sim.New(7)
	net := fabric.NewNetwork(e, netmodel.InfiniBand100G)
	var ssrvs []*simserver.Server
	for i := 0; i < 3; i++ {
		srv, err := simserver.New(simserver.Config{
			Engine: e, Host: net.NewHost(fmt.Sprintf("server-%d", i), sim.NewCPU(e, 8)), Tree: replTree(t),
			Cost: netmodel.DefaultCostModel(), Replica: replica.NewState(1, i == 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		ssrvs = append(ssrvs, srv)
	}
	var slog replLog
	scriptPeers(ssrvs[0].Replication(), &slog, ssrvs[0].Peer(ssrvs[1]), ssrvs[0].Peer(ssrvs[2]))
	host := net.NewHost("client", sim.NewCPU(e, 4))
	ep, err := ssrvs[0].Connect(host, net, 16)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := simclient.New(simclient.Config{Engine: e, Host: host, Endpoint: ep, Cost: netmodel.DefaultCostModel(), Forced: MethodFast})
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("script", func(p *sim.Proc) {
		defer e.Stop()
		replScript(&slog, sc.On(p).Insert, func() { ssrvs[2].Replication().State().Promote(2) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	simulated.core = replCore(ssrvs[0].Replication())
	for _, srv := range ssrvs {
		simulated.trees = append(simulated.trees, replContents(t, srv.Tree().(*rtree.Tree)))
		simulated.stats = append(simulated.stats, srv.Stats())
	}
	simulated.obs = slog.obs

	if !reflect.DeepEqual(tcp.obs, simulated.obs) {
		t.Errorf("transports observed different behaviour:\n tcp: %s\n sim: %s",
			strings.Join(tcp.obs, "\n      "), strings.Join(simulated.obs, "\n      "))
	}
	log := strings.Join(tcp.obs, "\n")
	for _, want := range []string{
		"b1 exchange 4: 0 of 1 records, ack status 0 epoch 1 applied 3",
		"b1 exchange 5: 1 of 1 records, ack status 0 epoch 1 applied 4",
		"b1 exchange 8: 0 of 1 records, ack status 0 epoch 1 applied 5",
		"write 6: ok",
		"b2 exchange 8: 1 of 1 records, ack status 4 epoch 2 applied 7",
		"write 8: fenced", "write 9: not-primary",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("log lacks %q:\n%s", want, log)
		}
	}
	if !reflect.DeepEqual(tcp.trees, simulated.trees) {
		t.Error("final trees differ between the transports")
	}
	if !reflect.DeepEqual(tcp.stats, simulated.stats) {
		t.Errorf("ServerSnapshots differ:\n tcp: %+v\n sim: %+v", tcp.stats, simulated.stats)
	}
	if tcp.core != simulated.core {
		t.Errorf("the primary's shipped, resends and lag: tcp %v, sim %v", tcp.core, simulated.core)
	}
}
