package rpcnet

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/wire"
)

// startReplicatedDeploy builds a K-shard deployment with replicas backups
// per shard (one primary + replicas-1 backups, every replica bulk-loaded
// with the same slice). Returns the primary addresses in shard order, the
// per-shard backup addresses, the servers as [shard][replica] with the
// primary at index 0, the map, and the dataset.
func startReplicatedDeploy(t *testing.T, n, k, replicas int, hbInv time.Duration, fetchSlots int) ([]string, [][]string, [][]*Server, *shard.Map, []rtree.Entry) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	data := make([]rtree.Entry, n)
	for i := range data {
		data[i] = rtree.Entry{Rect: randRect(rng, 0.01), Ref: uint64(i)}
	}
	m, err := shard.Build(data, shard.Config{K: k, MaxInsertEdge: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	assign := m.Assign(data)
	start := func(s int, rc *ReplicaConfig) *Server {
		reg, err := region.New(1<<14, 4096)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
		if err != nil {
			t.Fatal(err)
		}
		if len(assign[s]) > 0 {
			if err := tree.BulkLoad(append([]rtree.Entry(nil), assign[s]...), 0); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := Listen("127.0.0.1:0", tree, ServerConfig{
			HeartbeatInterval: hbInv,
			ShardMap:          m,
			ShardIndex:        s,
			Replica:           rc,
			FetchSlots:        fetchSlots,
		})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve() //nolint:errcheck // returns on Close
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	primaries := make([]string, k)
	backups := make([][]string, k)
	srvs := make([][]*Server, k)
	for s := 0; s < k; s++ {
		// Backups listen first so the primary knows their addresses.
		for b := 1; b < replicas; b++ {
			bs := start(s, &ReplicaConfig{Primary: false})
			backups[s] = append(backups[s], bs.Addr().String())
			srvs[s] = append(srvs[s], bs)
		}
		ps := start(s, &ReplicaConfig{Primary: true, Backups: backups[s]})
		primaries[s] = ps.Addr().String()
		srvs[s] = append([]*Server{ps}, srvs[s]...)
	}
	return primaries, backups, srvs, m, data
}

func waitUntil(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestNetFailoverKillPrimary kills shard 0's primary mid-workload and
// verifies the availability contract: every acknowledged write survives the
// failover (replication is synchronous, so an ack implies the backup
// applied it), searches keep answering, and the promoted backup serves the
// shard from then on.
func TestNetFailoverKillPrimary(t *testing.T) {
	const hbInv = 4 * time.Millisecond
	for _, tc := range []struct {
		name  string
		batch int
	}{
		{"plain", 0},
		{"batched", 8},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			addrs, backups, srvs, _, data := startReplicatedDeploy(t, 2000, 2, 2, hbInv, 0)
			r, err := connectRouter(addrs, RouterConfig{HealthMultiple: 3, Backups: backups})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })

			rng := rand.New(rand.NewSource(31))
			acked := make(map[uint64]geo.Rect)
			nextRef := uint64(1 << 20)
			insert := func(count int) {
				t.Helper()
				for i := 0; i < count; i++ {
					e := rtree.Entry{Rect: randRect(rng, 0.01), Ref: nextRef}
					nextRef++
					if tc.batch > 0 {
						ops := []BatchOp{{Type: wire.MsgInsert, Rect: e.Rect, Ref: e.Ref}}
						res := r.ExecBatch(ops, nil)
						err = res[0].Err
					} else {
						err = r.Insert(e.Rect, e.Ref)
					}
					if err == nil {
						acked[e.Ref] = e.Rect
					} else if !errors.Is(err, shard.ErrUnhealthy) {
						t.Fatalf("insert failed non-typed: %v", err)
					}
				}
			}

			insert(100)
			if got := srvs[0][1].Stats().ReplRecords + srvs[1][1].Stats().ReplRecords; got == 0 {
				t.Fatal("no replicated records applied on backups before the kill")
			}

			// Kill shard 0's primary: heartbeats freeze and every request
			// answers StatusUnavailable, like a wedged process behind a live
			// socket. Insert until the killed shard's backup has accepted a
			// promotion: an election needs a live candidate, and under the
			// race detector a late heartbeat can make the backup look dead
			// for a few liveness windows, so a fixed count of writes may all
			// finish before one election succeeds. The deadline lies far past
			// the 3 × 4 ms window.
			srvs[0][0].Kill()
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
				insert(10)
				if r.Stats().Promotions > 0 && srvs[0][1].Stats().Promotions > 0 {
					break
				}
			}
			insert(20)

			if got := r.Stats().Promotions; got == 0 {
				t.Error("no promotion recorded after killing a primary")
			}
			if got := srvs[0][1].Stats().Promotions; got == 0 {
				t.Error("backup never accepted a promote")
			}

			// Searches must keep answering: a full scan after the failover
			// sees the original dataset plus every acknowledged insert.
			want := make(map[uint64]bool, len(data)+len(acked))
			for _, e := range data {
				want[e.Ref] = true
			}
			for ref := range acked {
				want[ref] = true
			}
			all := geo.Rect{MinX: -1, MaxX: 2, MinY: -1, MaxY: 2}
			items, _, err := r.Search(all)
			if err != nil {
				t.Fatalf("post-failover scan: %v", err)
			}
			if len(items) != len(want) {
				t.Fatalf("post-failover scan: %d items, want %d", len(items), len(want))
			}
			for _, it := range items {
				if !want[it.Ref] {
					t.Fatalf("post-failover scan returned unexpected ref %d", it.Ref)
				}
				delete(want, it.Ref)
			}
			if len(want) != 0 {
				t.Fatalf("%d acknowledged writes lost after failover", len(want))
			}
		})
	}
}

// TestNetZombiePrimaryFenced demotes a primary by promoting its backup,
// then verifies the fencing epoch: the zombie's next replicated write is
// rejected by the backup, the zombie fences itself, and the client write
// fails with the typed fenced error instead of being silently lost.
func TestNetZombiePrimaryFenced(t *testing.T) {
	const hbInv = 4 * time.Millisecond
	addrs, backups, srvs, m, _ := startReplicatedDeploy(t, 1000, 2, 2, hbInv, 0)
	r, err := connectRouter(addrs, RouterConfig{HealthMultiple: 3, Backups: backups})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	probe0 := netProbeRect(t, m, 0)
	if err := r.Insert(probe0, 1<<20); err != nil {
		t.Fatalf("warmup insert: %v", err)
	}

	// The primary goes silent without dying: its liveness window lapses and
	// the next write promotes the backup.
	srvs[0][0].PauseHeartbeats(true)
	waitUntil(t, "shard 0 unhealthy", func() bool { return !r.Healthy(0) })
	if err := r.Insert(probe0, 1<<20+1); err != nil {
		t.Fatalf("failover insert: %v", err)
	}
	if got := r.Stats().Promotions; got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}

	// The zombie still answers its socket. A stale client writing through
	// it must be fenced: the backup rejects the epoch-1 stream and the
	// zombie propagates the typed error instead of acknowledging.
	zombie := dial(t, srvs[0][0], ClientConfig{})
	err = zombie.Insert(probe0, 1<<20+2)
	if !errors.Is(err, replica.ErrFenced) {
		t.Fatalf("zombie write error = %v, want ErrFenced", err)
	}

	// The promoted backup keeps serving reads and writes for the shard.
	items, _, err := r.Search(probe0)
	if err != nil {
		t.Fatalf("post-fence search: %v", err)
	}
	for _, it := range items {
		if it.Ref == 1<<20+2 {
			t.Fatal("fenced write became visible through the router")
		}
	}
}

// PauseHeartbeats suspends (true) or resumes (false) heartbeat pushes,
// simulating a wedged or partitioned server for liveness tests. The data
// path keeps serving.
func (s *Server) PauseHeartbeats(paused bool) { s.hbPaused.Store(paused) }
