// Kvstore: the paper's §VI framework claim in action — the same
// region/version/offload machinery that serves the R-tree also serves a
// B+-tree key-value store, through the same server core. A client scans the
// B+-tree with one-sided reads over the simulated RDMA fabric (the R-tree's
// offloaded walk, taking the leaf chain) while the server keeps writing,
// with cacheline version checks absorbing every torn read.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	catfish "github.com/catfish-db/catfish"
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
	for k := uint64(0); k < keys; k++ {
		if err := bt.Insert(k, k*2); err != nil {
			return err
		}
	}
	fmt.Printf("server: B+-tree %d keys (height %d)\n", bt.Len(), bt.Height())

	// The server core serves the B+-tree as a key-value store; the client
	// scans it through a forced-offload KV client.
	srv, err := catfish.NewServer(catfish.ServerConfig{
		Engine: engine, Host: serverHost, Tree: catfish.NewKVStore(bt), Cost: catfish.DefaultCostModel(),
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

	var runErr error
	engine.Spawn("server-writer", func(p *catfish.Proc) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 2000; i++ {
			k := uint64(rng.Intn(keys))
			if err := bt.Update(k, k*3); err != nil {
				runErr = err
				return
			}
			p.Sleep(500 * time.Nanosecond)
		}
	})
	engine.Spawn("client", func(p *catfish.Proc) {
		defer engine.Stop()
		p.Sleep(100 * time.Microsecond) // let the writer get going
		start := p.Now()
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
		fmt.Printf("client: ordered scan of %d keys via B+-tree leaf chain in %v (%d torn retries)\n",
			scanned, p.Now()-start, scanner.Stats().TornRetries)
	})
	if err := engine.Run(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	// Sanity: the tree is still intact after the concurrent writes.
	if err := bt.CheckInvariants(); err != nil {
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
	srv, err := catfish.NewServer(catfish.ServerConfig{
		Engine: engine, Host: serverHost, Tree: catfish.NewKVStore(tree),
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
		fast += st.FastSearches
		off += st.OffloadSearches
	}
	fmt.Printf("adaptive KV: %d gets via fast messaging, %d offloaded (%.0f%%) on a saturated 2-core server\n",
		fast, off, 100*float64(off)/float64(fast+off))
	return nil
}
