// Quickstart: build an R*-tree in a registered memory region, query it
// locally, then stand up a one-server/one-client simulated Catfish cluster
// and run the same queries remotely over RDMA fast messaging and one-sided
// offloading.
package main

import (
	"fmt"
	"log"

	catfish "github.com/catfish-db/catfish"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Local index ----------------------------------------------------
	// A region of 4096 chunks x 4 KB holds ~250k rectangles at the default
	// fan-out of 64.
	reg, err := catfish.NewMemoryRegion(4096, 4096)
	if err != nil {
		return err
	}
	tree, err := catfish.NewTree(reg, catfish.TreeConfig{})
	if err != nil {
		return err
	}

	// Index 100k rectangles: the paper's uniform dataset, scaled down.
	items := catfish.UniformRects(100_000, 0.0001, 42)
	if err := tree.BulkLoad(items, 0); err != nil {
		return err
	}
	fmt.Printf("tree: %d items, height %d, root chunk %d\n",
		tree.Len(), tree.Height(), tree.RootChunk())

	// A range query, paper-style: all rectangles overlapping a window.
	window := catfish.NewRect(0.25, 0.25, 0.26, 0.26)
	found, st, err := tree.SearchCollect(window)
	if err != nil {
		return err
	}
	fmt.Printf("local search %v: %d hits, %d nodes visited\n",
		window, len(found), st.NodesRead)

	// Inserts and deletes use the R*-tree algorithms (forced reinsertion,
	// margin-driven splits).
	if _, err := tree.Insert(catfish.NewRect(0.251, 0.251, 0.252, 0.252), 999_999); err != nil {
		return err
	}
	ok, _, err := tree.Delete(catfish.NewRect(0.251, 0.251, 0.252, 0.252), 999_999)
	if err != nil || !ok {
		return fmt.Errorf("delete round trip failed: %v %v", ok, err)
	}

	// --- Remote access over the simulated RDMA fabric --------------------
	engine := catfish.NewEngine(1)
	net := catfish.NewNetwork(engine, catfish.InfiniBand100G)
	serverHost := net.NewHost("server", catfish.NewCPU(engine, 28))
	clientHost := net.NewHost("client", catfish.NewCPU(engine, 8))

	srv, err := catfish.NewServer(catfish.ServerConfig{
		Engine:            engine,
		Host:              serverHost,
		Tree:              tree,
		Cost:              catfish.DefaultCostModel(),
		Mode:              catfish.ModeEvent,
		HeartbeatInterval: catfish.DefaultHeartbeatInterval,
	})
	if err != nil {
		return err
	}
	ep, err := srv.Connect(clientHost, net, 16)
	if err != nil {
		return err
	}
	cli, err := catfish.NewClient(catfish.ClientConfig{
		Engine:   engine,
		Host:     clientHost,
		Endpoint: ep,
		Cost:     catfish.DefaultCostModel(),
		Adaptive: true, MultiIssue: true,
	})
	if err != nil {
		return err
	}

	var runErr error
	engine.Spawn("demo-client", func(p *catfish.Proc) {
		defer engine.Stop()
		// Fast messaging: the server executes the search.
		items, method, err := cli.On(p).Search(window)
		if err != nil {
			runErr = err
			return
		}
		fmt.Printf("remote search via %-7s: %d hits at t=%v\n", method, len(items), p.Now())

		// Force one offloaded search: the client walks the tree itself
		// with one-sided RDMA reads and multi-issue pipelining.
		off, err := catfish.NewClient(catfish.ClientConfig{
			Engine: engine, Host: clientHost, Endpoint: ep,
			Cost:   catfish.DefaultCostModel(),
			Forced: catfish.MethodOffload, MultiIssue: true,
		})
		if err != nil {
			runErr = err
			return
		}
		items, method, err = off.On(p).Search(window)
		if err != nil {
			runErr = err
			return
		}
		fmt.Printf("remote search via %-7s: %d hits at t=%v (%d nodes fetched)\n",
			method, len(items), p.Now(), off.Stats().NodesFetched)
	})
	if err := engine.Run(); err != nil {
		return err
	}
	return runErr
}
