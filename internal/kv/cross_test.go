package kv

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/catfish-db/catfish/internal/btree"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rpcnet"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/telemetry"
)

// crossKeys is the preload of every cross-transport run: the even keys below
// 2×crossKeys, key k*2 holding k.
const crossKeys = 3000

// loadCrossStore builds the identical B+-tree each run starts from.
func loadCrossStore(t *testing.T) *Store {
	t.Helper()
	reg, err := region.New(1<<12, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := btree.New(reg, btree.Config{MaxEntries: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range rand.New(rand.NewSource(4)).Perm(crossKeys) {
		if err := tree.Insert(uint64(k)*2, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	return NewStore(tree)
}

// errName names the errors.Is class an answer falls in on either transport.
func errName(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNotFound):
		return "not-found"
	case errors.Is(err, proto.ErrServer):
		return "server"
	}
	return "other: " + err.Error()
}

// kvScript replays one seeded script of puts (runs of new keys, which split
// leaves, and overwrites), gets, ranges, deletes (present and absent) and 8-key
// batched gets on k and returns what it observed: every answer, with the
// method a read reported.
func kvScript[T proto.Transport](k Ops[T]) []string {
	rng := rand.New(rand.NewSource(9))
	var obs []string
	logf := func(format string, args ...any) { obs = append(obs, fmt.Sprintf(format, args...)) }
	key := func() uint64 { return uint64(rng.Intn(2*crossKeys + 200)) } // odd and past the end: absent
	for round := 0; round < 60; round++ {
		switch op := rng.Intn(5); op {
		case 0:
			// A run of adjacent keys: overwrites and new keys, enough of
			// them to split the leaf they land in.
			from := key()
			for kk := from; kk < from+40; kk++ {
				v := rng.Uint64()
				logf("put %d %d: %s", kk, v, errName(k.Put(kk, v)))
			}
		case 1:
			kk := key()
			v, m, err := k.Get(kk)
			logf("get %d: %d %v %s", kk, v, m, errName(err))
		case 2:
			from := key()
			to := from + uint64(rng.Intn(300))
			var pairs []string
			m, err := k.Range(from, to, func(kk, v uint64) bool {
				pairs = append(pairs, fmt.Sprintf("%d=%d", kk, v))
				return true
			})
			logf("range [%d, %d]: %v %s %d pairs %v", from, to, m, errName(err), len(pairs), pairs)
		case 3:
			kk := key()
			logf("delete %d: %s", kk, errName(k.Delete(kk)))
		default:
			keys := make([]uint64, 8)
			for i := range keys {
				keys[i] = key()
			}
			for i, res := range k.GetBatch(keys, nil) {
				logf("batched get %d: %d %v %s", keys[i], res.Val, res.Method, errName(res.Err))
			}
		}
	}
	return obs
}

// serverCounters is what both servers count for the script.
func serverCounters(st telemetry.ServerSnapshot) string {
	return fmt.Sprintf("%d searches, %d inserts, %d deletes, %d results, %d batches carrying %d ops",
		st.Searches, st.Inserts, st.Deletes, st.Results, st.Batches, st.BatchedOps)
}

// TestKVCrossTransport runs one key-value script against a simulated server
// and a loopback TCP server — the one server core over two identically built
// B+-trees — by forced fast messaging and by forced offloading, and requires
// identical answers, identical server counters and both trees sound.
func TestKVCrossTransport(t *testing.T) {
	for _, method := range []Method{MethodFast, MethodOffload} {
		t.Run(method.String(), func(t *testing.T) {
			netStore := loadCrossStore(t)
			srv, err := rpcnet.Listen("127.0.0.1:0", netStore, rpcnet.ServerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve() //nolint:errcheck // returns on Close
			defer srv.Close()
			mx, err := rpcnet.DialMux(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer mx.Close()
			nc, err := mx.Client(rpcnet.ClientConfig{Forced: method})
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			netObs := kvScript(On(nc.Ops))

			simStore := loadCrossStore(t)
			e := sim.New(3)
			net := fabric.NewNetwork(e, netmodel.InfiniBand100G)
			ssrv, err := server.New(server.Config{Engine: e, Host: net.NewHost("server", sim.NewCPU(e, 8)),
				Tree: simStore, Cost: netmodel.DefaultCostModel()})
			if err != nil {
				t.Fatal(err)
			}
			host := net.NewHost("client", sim.NewCPU(e, 4))
			ep, err := ssrv.Connect(host, net, 16)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := NewClient(ClientConfig{Engine: e, Host: host, Endpoint: ep,
				Cost: netmodel.DefaultCostModel(), Forced: method})
			if err != nil {
				t.Fatal(err)
			}
			var simObs []string
			e.Spawn("script", func(p *sim.Proc) {
				defer e.Stop()
				simObs = kvScript(On(sc.On(p)))
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(netObs, simObs) {
				t.Errorf("transports answered differently:\n net: %s\n sim: %s",
					strings.Join(netObs, "\n      "), strings.Join(simObs, "\n      "))
			}
			nst, sst := serverCounters(srv.Stats().ServerSnapshot), serverCounters(ssrv.Stats())
			if nst != sst {
				t.Errorf("server counters: %s over sockets, %s on the fabric", nst, sst)
			}
			for name, s := range map[string]*Store{"tcp": netStore, "sim": simStore} {
				if err := s.Tree().CheckInvariants(); err != nil {
					t.Errorf("%s tree: %v", name, err)
				}
			}
			// The script is only worth comparing if it did what it says.
			log := strings.Join(netObs, "\n")
			for _, want := range []string{"put", "get", "range", "delete", "batched get", ": ok", "not-found", method.String()} {
				if !strings.Contains(log, want) {
					t.Errorf("log lacks %q:\n%s", want, log)
				}
			}
			if grown := simStore.Tree().Region().Allocated(); grown <= loadCrossStore(t).Tree().Region().Allocated() {
				t.Errorf("the script's puts split no leaf (%d chunks)", grown)
			}
			t.Log(nst)
		})
	}
}

// TestRTreeOnlyPathsRefuseStore: the R-tree-only parts of the TCP stack — the
// scatter-gather router and the elastic deployment — refuse a server that
// announces a B+-tree with ErrIndex instead of routing by space over keys.
func TestRTreeOnlyPathsRefuseStore(t *testing.T) {
	srv, err := rpcnet.Listen("127.0.0.1:0", loadCrossStore(t), rpcnet.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck // returns on Close
	defer srv.Close()
	if conn, err := rpcnet.Connect([]string{srv.Addr().String()}, rpcnet.WithHealthMultiple(3)); !errors.Is(err, proto.ErrIndex) {
		if err == nil {
			conn.Close()
		}
		t.Errorf("router over a B+-tree server: %v, want ErrIndex", err)
	}
	if _, err := rpcnet.NewElastic(shard.Single(), []*rpcnet.Server{srv}, nil, nil); !errors.Is(err, proto.ErrIndex) {
		t.Errorf("elastic over a B+-tree server: %v, want ErrIndex", err)
	}
}
