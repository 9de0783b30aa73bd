package main

import (
	"math/rand"
	"slices"
	"time"

	catfish "github.com/catfish-db/catfish"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rpcnet"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// netPass is how long each standalone loopback pass measures.
const netPass = 600 * time.Millisecond

// serve starts a loopback server over tree and returns it with a stop
// function that waits for the accept loop.
func serve(tree *rtree.Tree, cfg catfish.NetServerConfig) (*catfish.NetServer, func(), error) {
	srv, err := catfish.Listen("127.0.0.1:0", tree, cfg)
	if err != nil {
		return nil, nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	return srv, func() { srv.Close(); <-served }, nil
}

// loop issues op back to back for d and returns the sorted latencies.
func loop(d time.Duration, op func(i int) error) ([]int32, error) {
	var ns []int32
	for i, end := 0, time.Now().Add(d); ; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return nil, err
		}
		t1 := time.Now()
		ns = append(ns, int32(t1.Sub(t0)))
		if t1.After(end) {
			break
		}
	}
	slices.Sort(ns)
	return ns, nil
}

// net runs the standalone loopback passes: connection set-up, the null
// round trip against an empty tree, a 16-search batch, and forced fetch
// over scan windows (the fetch method has no end-to-end workload yet).
func (p *probes) net(tree *rtree.Tree, rng *rand.Rand, sc scale) error {
	netPass := netPass / time.Duration(p.shrink)
	// Null round trip: an empty tree leaves framing, mux, dispatch and the
	// four syscalls.
	ereg, err := region.New(16, 4096)
	if err != nil {
		return err
	}
	empty, err := rtree.New(ereg, rtree.Config{})
	if err != nil {
		return err
	}
	esrv, stopEmpty, err := serve(empty, catfish.NetServerConfig{HeartbeatInterval: heartbeat})
	if err != nil {
		return err
	}
	defer stopEmpty()
	addr := []string{esrv.Addr().String()}

	var dials []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		c, err := catfish.Connect(addr)
		if err != nil {
			return err
		}
		dials = append(dials, float64(time.Since(t0))/1e3)
		c.Close()
	}
	p.vals["rpcnet.connect_us"] = median(dials)

	c, err := catfish.Connect(addr, catfish.WithForced(catfish.NetMethodFast))
	if err != nil {
		return err
	}
	q := geo.NewRect(0.4, 0.4, 0.402, 0.402)
	var ns []int32
	p.tr.phase("probe:rpcnet.null_rtt_p50_us", func() {
		ns, err = loop(netPass, func(int) error { _, _, err := c.Search(q); return err })
	})
	c.Close()
	if err != nil {
		return err
	}
	v, _ := percentile(ns, 0.5, 0)
	p.vals["rpcnet.null_rtt_p50_us"] = v / 1e3

	// The probe tree behind a fetch-enabled server.
	srv, stop, err := serve(tree, catfish.NetServerConfig{HeartbeatInterval: heartbeat, FetchSlots: 16})
	if err != nil {
		return err
	}
	defer stop()
	addr = []string{srv.Addr().String()}

	bc, err := catfish.Connect(addr, catfish.WithForced(catfish.NetMethodFast))
	if err != nil {
		return err
	}
	ops := make([]rpcnet.BatchOp, 16)
	var results []rpcnet.BatchResult
	p.tr.phase("probe:rpcnet.batch16_us_per_op", func() {
		ns, err = loop(netPass, func(int) error {
			for i := range ops {
				ops[i] = rpcnet.BatchOp{Type: wire.MsgSearch, Rect: fixedWindow(rng, pointEdge)}
			}
			results = bc.ExecBatch(ops, results)
			for _, r := range results {
				if r.Err != nil {
					return r.Err
				}
			}
			return nil
		})
	})
	bc.Close()
	if err != nil {
		return err
	}
	var sum float64
	for _, v := range ns {
		sum += float64(v)
	}
	p.vals["rpcnet.batch16_us_per_op"] = sum / float64(len(ns)) / 16 / 1e3

	fc, err := catfish.Connect(addr, catfish.WithForced(rpcnet.MethodFetch))
	if err != nil {
		return err
	}
	defer fc.Close()
	tx0 := srv.Stats().TXBytes
	p.tr.phase("probe:rpcnet.fetch_scan_p50_us", func() {
		ns, err = loop(netPass, func(int) error { _, _, err := fc.Search(fixedWindow(rng, sc.scanEdge)); return err })
	})
	if err != nil {
		return err
	}
	snap := fc.Snapshot()
	v, _ = percentile(ns, 0.5, 0)
	p.vals["rpcnet.fetch_scan_p50_us"] = v / 1e3
	p.vals["rpcnet.fetch_pulls_per_search"] = float64(snap.FetchPulls) / float64(max(snap.FetchSearches, 1))
	p.vals["rpcnet.fetch_tx_bytes_per_op"] = float64(srv.Stats().TXBytes-tx0) / float64(len(ns))
	p.v.check(snap.FetchSearches == uint64(len(ns)) && snap.FetchFallbacks == 0,
		"fetch pass: %d searches, %d by fetch, %d fell back", len(ns), snap.FetchSearches, snap.FetchFallbacks)
	return nil
}
