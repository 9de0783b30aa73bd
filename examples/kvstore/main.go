// Kvstore: the paper's §VI framework claim in action — the same
// region/version/offload machinery that serves the R-tree also serves a
// B+-tree and a cuckoo hash table. A server owns both structures in
// registered memory; a client performs one-sided lookups over the simulated
// RDMA fabric (point gets against the hash table, ordered scans against the
// B+-tree by the R-tree's offloaded walk) while the server keeps writing,
// with cacheline version checks absorbing every torn read.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"time"

	catfish "github.com/catfish-db/catfish"
	"github.com/catfish-db/catfish/internal/cuckoo"
)

const keys = 50_000

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	engine := catfish.NewEngine(7)
	net := catfish.NewNetwork(engine, catfish.InfiniBand100G)
	serverHost := net.NewHost("server", catfish.NewCPU(engine, 8))
	clientHost := net.NewHost("client", catfish.NewCPU(engine, 4))

	// B+-tree region: 4 KB chunks, ~220 keys per node.
	btReg, err := catfish.NewMemoryRegion(4096, 4096)
	if err != nil {
		return err
	}
	bt, err := catfish.NewBTree(btReg, catfish.BTreeConfig{})
	if err != nil {
		return err
	}
	// Cuckoo region: 256 B chunks = one 14-slot bucket each.
	ckReg, err := catfish.NewMemoryRegion(8192, 256)
	if err != nil {
		return err
	}
	ck, err := catfish.NewCuckooTable(ckReg, catfish.CuckooConfig{Seed: 9})
	if err != nil {
		return err
	}
	for k := uint64(0); k < keys; k++ {
		if err := bt.Insert(k, k*2); err != nil {
			return err
		}
		if err := ck.Put(k, k*2); err != nil {
			return err
		}
	}
	fmt.Printf("server: B+-tree %d keys (height %d), cuckoo %d keys (load %.0f%%)\n",
		bt.Len(), bt.Height(), ck.Len(), ck.LoadFactor()*100)

	// A KV server serves the B+-tree: the client scans it through a
	// forced-offload KV client, and reads the cuckoo table's registered
	// region with raw one-sided reads.
	srv, err := catfish.NewKVServer(catfish.KVServerConfig{
		Engine: engine, Host: serverHost, Tree: bt, Cost: catfish.DefaultCostModel(),
	})
	if err != nil {
		return err
	}
	ep, err := srv.Connect(clientHost, net, 16)
	if err != nil {
		return err
	}
	scanner, err := catfish.NewKVClient(catfish.KVClientConfig{
		Engine: engine, Host: clientHost, Endpoint: ep, Cost: catfish.DefaultCostModel(), Forced: catfish.MethodOffload,
	})
	if err != nil {
		return err
	}
	ckMem := serverHost.RegisterRegion(ckReg)
	ckQP, _ := net.ConnectQP(clientHost, serverHost, 8)

	var runErr error
	engine.Spawn("server-writer", func(p *catfish.Proc) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 2000; i++ {
			k := uint64(rng.Intn(keys))
			if err := bt.Update(k, k*3); err != nil {
				runErr = err
				return
			}
			if err := ck.Update(k, k*3); err != nil {
				runErr = err
				return
			}
			p.Sleep(500 * time.Nanosecond)
		}
	})
	engine.Spawn("client", func(p *catfish.Proc) {
		defer engine.Stop()
		ckReader := &catfish.CuckooReader{
			Fetch: func(id int) ([]byte, error) {
				return ckQP.ReadSync(p, ckMem, id*ckReg.ChunkSize(), ckReg.ChunkSize())
			},
			Buckets:     ck.Buckets(),
			Slots:       ck.SlotsPerBucket(),
			Seed:        9,
			BucketChunk: ck.BucketChunk,
		}
		rng := rand.New(rand.NewSource(2))
		start := p.Now()
		const gets = 2000
		for i := 0; i < gets; i++ {
			k := uint64(rng.Intn(keys))
			v, err := ckReader.Get(k)
			if err != nil {
				runErr = fmt.Errorf("cuckoo get %d: %w", k, err)
				return
			}
			if v != k*2 && v != k*3 {
				runErr = fmt.Errorf("cuckoo get %d = %d, want %d or %d", k, v, k*2, k*3)
				return
			}
		}
		hashDur := p.Now() - start
		start = p.Now()
		scanned := 0
		if _, err := scanner.Range(p, 1000, 1500, func(k, v uint64) bool {
			if v != k*2 && v != k*3 {
				runErr = fmt.Errorf("btree scan %d = %d", k, v)
				return false
			}
			scanned++
			return true
		}); err != nil && runErr == nil {
			runErr = err
		}
		scanDur := p.Now() - start
		fmt.Printf("client: %d one-sided hash gets in %v (%.1fµs avg, %d torn retries)\n",
			gets, hashDur, float64(hashDur.Microseconds())/gets, ckReader.TornRetries)
		fmt.Printf("client: ordered scan of %d keys via B+-tree leaf chain in %v (%d torn retries)\n",
			scanned, scanDur, scanner.Stats().TornRetries)
	})
	if err := engine.Run(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	// Sanity: structures still intact after the concurrent writes.
	if err := bt.CheckInvariants(); err != nil {
		return err
	}
	if _, err := ck.Get(keys - 1); err != nil && !errors.Is(err, cuckoo.ErrNotFound) {
		return err
	}

	// --- The full adaptive stack over the B+-tree ------------------------
	// The same Algorithm 1 switch that drives the R-tree drives a KV
	// service: reads flip to one-sided traversal when the server saturates.
	return adaptiveKVDemo()
}

func adaptiveKVDemo() error {
	engine := catfish.NewEngine(8)
	net := catfish.NewNetwork(engine, catfish.InfiniBand100G)
	serverHost := net.NewHost("kv-server", catfish.NewCPU(engine, 2))
	reg, err := catfish.NewMemoryRegion(4096, 4096)
	if err != nil {
		return err
	}
	tree, err := catfish.NewBTree(reg, catfish.BTreeConfig{})
	if err != nil {
		return err
	}
	for k := uint64(0); k < keys; k++ {
		if err := tree.Insert(k, k); err != nil {
			return err
		}
	}
	srv, err := catfish.NewKVServer(catfish.KVServerConfig{
		Engine: engine, Host: serverHost, Tree: tree,
		Cost:              catfish.DefaultCostModel(),
		HeartbeatInterval: time.Millisecond,
	})
	if err != nil {
		return err
	}
	var clients []*catfish.KVClient
	for i := 0; i < 8; i++ {
		host := net.NewHost(fmt.Sprintf("kv-client-%d", i), catfish.NewCPU(engine, 8))
		ep, err := srv.Connect(host, net, 16)
		if err != nil {
			return err
		}
		c, err := catfish.NewKVClient(catfish.KVClientConfig{
			Engine: engine, Host: host, Endpoint: ep,
			Cost:     catfish.DefaultCostModel(),
			Adaptive: true, HeartbeatInv: time.Millisecond,
		})
		if err != nil {
			return err
		}
		clients = append(clients, c)
	}
	wg := catfish.NewWaitGroup(engine)
	var kvErr error
	for i, c := range clients {
		i, c := i, c
		wg.Add(1)
		engine.Spawn(fmt.Sprintf("kv-user-%d", i), func(p *catfish.Proc) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for q := 0; q < 500; q++ {
				k := uint64(rng.Intn(keys))
				v, _, err := c.Get(p, k)
				if err != nil || v != k {
					kvErr = fmt.Errorf("kv get %d = %d, %v", k, v, err)
					return
				}
			}
		})
	}
	engine.Spawn("kv-stop", func(p *catfish.Proc) { wg.Wait(p); engine.Stop() })
	if err := engine.Run(); err != nil {
		return err
	}
	if kvErr != nil {
		return kvErr
	}
	var fast, off uint64
	for _, c := range clients {
		st := c.Stats()
		fast += st.FastReads
		off += st.OffloadReads
	}
	fmt.Printf("adaptive KV: %d gets via fast messaging, %d offloaded (%.0f%%) on a saturated 2-core server\n",
		fast, off, 100*float64(off)/float64(fast+off))
	return nil
}
