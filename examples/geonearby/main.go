// Geonearby: the paper's Fig 1 scenario — web front-ends answering
// "restaurants near me" against a back-end Catfish server. A city's points
// of interest are indexed in the server's R*-tree; front-end hosts run a
// fleet of adaptive clients issuing small nearby-window queries plus a
// trickle of new-business inserts. The run reports how the fleet's searches
// split between fast messaging and offloading as the server heats up.
package main

import (
	"fmt"
	"log"
	"math/rand"

	catfish "github.com/catfish-db/catfish"
)

const (
	pois            = 200_000
	frontEnds       = 4  // web servers (client hosts)
	usersPerFront   = 16 // concurrent user sessions per front-end
	queriesPerUser  = 300
	nearbyWindow    = 0.002 // ~200 m in unit-square city coordinates
	newBusinessRate = 0.02  // fraction of requests that add a POI
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	engine := catfish.NewEngine(2026)
	net := catfish.NewNetwork(engine, catfish.InfiniBand100G)

	// Back-end: one server machine owns the POI index.
	serverHost := net.NewHost("backend", catfish.NewCPU(engine, 8))
	reg, err := catfish.NewMemoryRegion(1<<15, 4096)
	if err != nil {
		return err
	}
	tree, err := catfish.NewTree(reg, catfish.TreeConfig{})
	if err != nil {
		return err
	}
	if err := tree.BulkLoad(cityPOIs(pois), 0); err != nil {
		return err
	}
	srv, err := catfish.NewServer(catfish.ServerConfig{
		Engine:            engine,
		Host:              serverHost,
		Tree:              tree,
		Cost:              catfish.DefaultCostModel(),
		Mode:              catfish.ModeEvent,
		HeartbeatInterval: catfish.DefaultHeartbeatInterval,
		StagedNodeWrites:  true,
	})
	if err != nil {
		return err
	}

	// Front-ends: each web server hosts many user sessions, each session
	// an adaptive Catfish client.
	var clients []*catfish.Client
	for f := 0; f < frontEnds; f++ {
		host := net.NewHost(fmt.Sprintf("frontend-%d", f), catfish.NewCPU(engine, 28))
		for u := 0; u < usersPerFront; u++ {
			ep, err := srv.Connect(host, net, 16)
			if err != nil {
				return err
			}
			c, err := catfish.NewClient(catfish.ClientConfig{
				Engine: engine, Host: host, Endpoint: ep,
				Cost:     catfish.DefaultCostModel(),
				Adaptive: true, MultiIssue: true,
			})
			if err != nil {
				return err
			}
			clients = append(clients, c)
		}
	}

	wg := catfish.NewWaitGroup(engine)
	var hits, searches, inserts int
	var runErr error
	for i, c := range clients {
		i, c := i, c
		wg.Add(1)
		engine.Spawn(fmt.Sprintf("user-%d", i), func(p *catfish.Proc) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) + 1))
			for q := 0; q < queriesPerUser; q++ {
				if rng.Float64() < newBusinessRate {
					x, y := rng.Float64(), rng.Float64()
					r := catfish.NewRect(x, y, x+1e-5, y+1e-5)
					if err := c.On(p).Insert(r, uint64(1_000_000+i*queriesPerUser+q)); err != nil {
						runErr = err
						return
					}
					inserts++
					continue
				}
				// "Near me": a small window around the user's position.
				x, y := rng.Float64(), rng.Float64()
				window := catfish.NewRect(x, y, min1(x+nearbyWindow), min1(y+nearbyWindow))
				found, _, err := c.On(p).Search(window)
				if err != nil {
					runErr = err
					return
				}
				hits += len(found)
				searches++
			}
		})
	}
	// A concierge session asks for "the 5 closest restaurants" over the
	// wire once the rush is over — the server runs the R-tree's best-first
	// kNN and replies with the neighbors in distance order.
	var remoteNearest []catfish.Neighbor
	engine.Spawn("coordinator", func(p *catfish.Proc) {
		wg.Wait(p)
		var err error
		if remoteNearest, _, err = clients[0].On(p).Nearest(5, 0.5, 0.5); err != nil {
			runErr = err
		}
		engine.Stop()
	})
	if err := engine.Run(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}

	var fast, off, torn uint64
	for _, c := range clients {
		st := c.Stats()
		fast += st.FastSearches
		off += st.OffloadSearches
		torn += st.TornRetries
	}
	fmt.Printf("users: %d across %d front-ends\n", len(clients), frontEnds)
	fmt.Printf("searches: %d (avg %.1f POIs each), inserts: %d\n",
		searches, float64(hits)/float64(searches), inserts)
	fmt.Printf("served via fast messaging: %d, offloaded to clients: %d (%.0f%%)\n",
		fast, off, 100*float64(off)/float64(fast+off))
	fmt.Printf("torn-read retries absorbed by version checks: %d\n", torn)
	fmt.Printf("virtual duration: %v; server searches executed: %d\n",
		engine.Now(), srv.Stats().Searches)

	// The remote answer must match a local best-first traversal exactly.
	local, _, err := tree.Nearest(5, 0.5, 0.5)
	if err != nil {
		return err
	}
	fmt.Printf("5 POIs nearest to the city center (remote kNN):")
	for i, n := range remoteNearest {
		fmt.Printf(" #%d", n.Ref)
		if n != local[i] {
			return fmt.Errorf("remote kNN diverged from local traversal at rank %d", i)
		}
	}
	fmt.Println()
	return nil
}

// cityPOIs clusters points of interest like a real city: a dense core and
// sparser suburbs.
func cityPOIs(n int) []catfish.Entry {
	rng := rand.New(rand.NewSource(11))
	out := make([]catfish.Entry, n)
	for i := range out {
		var x, y float64
		if rng.Float64() < 0.6 { // downtown core
			x = 0.5 + rng.NormFloat64()*0.08
			y = 0.5 + rng.NormFloat64()*0.08
		} else {
			x, y = rng.Float64(), rng.Float64()
		}
		x, y = clamp01(x), clamp01(y)
		out[i] = catfish.Entry{
			Rect: catfish.NewRect(x, y, min1(x+2e-5), min1(y+2e-5)),
			Ref:  uint64(i),
		}
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func min1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}
