package main

import (
	"bytes"
	"log"
	"net"
	"sync"
	"time"

	catfish "github.com/catfish-db/catfish"
	"github.com/catfish-db/catfish/internal/autoscale"
	"github.com/catfish-db/catfish/internal/rpcnet"
)

// selfScaler grows a single-process deployment: an autoscale.Controller
// scrapes every in-process server's registry and, when one pegs past the
// scale-up threshold, splits it through the live-resharding path into an
// additional listener in this same process. Routers adopt the bumped map
// from heartbeats, so a deployment started as one server scales to the
// policy's shard cap without restarting anything. Single-host by design —
// spawned listeners bind ephemeral ports on the same interface.
type selfScaler struct {
	mu    sync.Mutex
	srvs  []*catfish.NetServer
	regs  []*catfish.Registry
	addrs []string
	hb    time.Duration
	host  string // interface spawned listeners bind ("" = all)

	newCfg  func(*catfish.Registry) catfish.NetServerConfig
	newTree func() (*catfish.Tree, error)
}

// Scrape reads each server's registry in-process — the same Prometheus
// text the /metrics endpoint would serve, without requiring one.
func (s *selfScaler) Scrape() ([]autoscale.Sample, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]autoscale.Sample, len(s.regs))
	for i, reg := range s.regs {
		out[i].Shard = i
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			out[i].Err = err
			continue
		}
		out[i].Util, out[i].TXUtil, out[i].Err = autoscale.ParseUtilization(&buf)
	}
	return out, nil
}

// Split implements autoscale.Actuator: split shard i into an empty
// in-process server (rpcnet.SplitShard) and drain the dual-write once
// routers have had time to adopt the map from heartbeats.
func (s *selfScaler) Split(i int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reg := catfish.NewRegistry()
	srv, nm, addrs, err := rpcnet.SplitShard(s.srvs, s.addrs, i, func() (*catfish.NetServer, error) {
		tree, err := s.newTree()
		if err != nil {
			return nil, err
		}
		srv, err := catfish.Listen(net.JoinHostPort(s.host, "0"), tree, s.newCfg(reg))
		if err != nil {
			return nil, err
		}
		go srv.Serve() //nolint:errcheck // returns on Close
		return srv, nil
	})
	if err != nil {
		return len(s.srvs), err
	}
	old := s.srvs[i]
	s.srvs = append(s.srvs, srv)
	s.regs = append(s.regs, reg)
	s.addrs = addrs
	hb := s.hb
	go func() {
		// Routers adopt the bumped map from heartbeats; well past their
		// liveness window the dual-write duplication costs more than a
		// straggler's correctness (a stale router still gets right answers
		// from the dual-written old shard until it converges).
		time.Sleep(20 * hb)
		old.DrainSplit() //nolint:errcheck // shed duplication is benign
	}()
	log.Printf("autoscale: split shard %d -> K=%d (new server on %s)", i, nm.K(), srv.Addr())
	return nm.K(), nil
}

// runSelfScaler wires the controller, on the policy's default thresholds,
// and blocks forever (the server's Serve loop runs elsewhere).
func runSelfScaler(s *selfScaler) {
	ctl := autoscale.NewController(s, s, autoscale.PolicyConfig{Cooldown: 10 * s.hb})
	log.Printf("autoscale: controller on")
	ctl.Run(make(chan struct{}), 2*s.hb)
}
