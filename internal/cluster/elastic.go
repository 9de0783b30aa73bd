package cluster

import (
	"fmt"
	"time"

	"github.com/catfish-db/catfish/internal/autoscale"
	"github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/sim"
)

// Map returns the deployment's shard map: nil for one server never split.
func (d *Deployment) Map() *shard.Map { return d.smap }

// Scrape implements autoscale.Scraper: each shard's CPU and send-engine
// utilization as its server's heartbeat last published them.
func (d *Deployment) Scrape() ([]autoscale.Sample, error) {
	out := make([]autoscale.Sample, len(d.shards))
	for s, st := range d.shards {
		out[s].Shard = s
		out[s].Util, out[s].TXUtil = st.srv.Utilization()
	}
	return out, nil
}

// Autoscale runs a controller under cfg over the deployment, its Scraper
// and Actuator, as a process ticking every interval of virtual time, and
// returns it for its counters. Call it before Drive.
func (d *Deployment) Autoscale(cfg autoscale.PolicyConfig, every time.Duration) *autoscale.Controller {
	ctl := autoscale.NewController(d, d, cfg)
	d.e.Spawn("autoscaler", func(p *sim.Proc) {
		for {
			p.Sleep(every)
			ctl.Tick(time.Unix(0, 0).Add(p.Now())) //nolint:errcheck // counted in ctl.Stats
		}
	})
	return ctl
}

// Split implements autoscale.Actuator: it grows the deployment by one
// shard and returns the new count. The new server stack, the session shard
// i mirrors to it on and every client's connection to it are made at once;
// the split itself runs as a process of its own (reshard). One split runs
// at a time: Split refuses while the last has not drained. It refuses a
// deployment with backups, whose new shard would have none and whose
// backups would, once promoted, fence by the pre-split map.
func (d *Deployment) Split(i int) (int, error) {
	k := len(d.shards)
	if i < 0 || i >= k || d.splitting || d.cfg.Replicas > 1 {
		return k, fmt.Errorf("cluster: shard %d of %d cannot split now", i, k)
	}
	d.assign = append(d.assign, nil)
	st, err := d.build(k, fmt.Sprintf("shard-%d", k), nil)
	var sess *client.Client
	if err == nil {
		sess, err = d.connect(d.shards[i].host, st.srv)
	}
	fresh := make([]*client.Client, len(d.clients))
	for c := 0; c < len(d.clients) && err == nil; c++ {
		fresh[c], err = d.connect(d.hosts[c/d.cfg.ClientsPerHost], st.srv)
	}
	if err != nil {
		d.assign = d.assign[:k]
		return k, err
	}
	for c := range d.clients {
		d.clients[c] = append(d.clients[c], fresh[c])
	}
	d.shards, d.backups, d.splitting = append(d.shards, st), append(d.backups, nil), true
	d.e.Spawn(fmt.Sprintf("reshard-%d", i), func(p *sim.Proc) {
		if err := d.reshard(p, i, sess, fresh); err != nil && d.splitErr == nil {
			d.splitErr = fmt.Errorf("cluster: split of shard %d: %w", i, err)
		}
		d.splitting = false
	})
	return k + 1, nil
}

// reshard runs the split of shard i on p (DESIGN.md §5.18). A deployment
// of one server first gives it the one-cell map with the dataset's pads,
// and at the commit builds every client's router on the successor map;
// existing routers are offered it instead. The shard drains once every
// router has started an operation on the successor map, so no driver has
// one in flight on the old map, or after 100 heartbeat intervals. A router
// that tracks no heartbeats adopts only when the fence refuses one of its
// writes; until then its searches miss the drained cell (DESIGN.md §5.11).
func (d *Deployment) reshard(p *sim.Proc, i int, sess *client.Client, fresh []*client.Client) error {
	m, old := d.smap, d.shards[i].srv
	if m == nil {
		var err error
		if m, err = d.cfg.shardMap(1); err != nil {
			return err
		}
		old.SetShard(m, 0)
	}
	var nm *shard.Map
	if err := old.Split(p, func(es []rtree.Entry) (proto.Partition, error) {
		next, err := m.SplitCell(i, es)
		nm = next
		return next, err
	}, func(p *sim.Proc, ops []proto.BatchOp, res []proto.BatchResult) []proto.BatchResult {
		return sess.On(p).ExecBatch(ops, res)
	}); err != nil {
		return err
	}
	for s, st := range d.shards {
		if s != i {
			st.srv.SetShard(nm, s)
		}
	}
	d.smap = nm
	routed := func(r *shard.Router) uint64 { s := r.Stats(); return s.Searches + s.Writes + s.Moves + s.KNNs }
	first, started := d.routers == nil, make([]uint64, len(d.clients))
	for c := range d.clients {
		if !first {
			d.routers[c].Offer(nm, fresh[c:c+1])
			started[c] = routed(d.routers[c])
			continue
		}
		r, err := d.newRouter(c, nm, nil)
		if err != nil {
			return err
		}
		d.routers = append(d.routers, r)
	}
	moved := func() bool {
		for c, r := range d.routers {
			if r.Map() != nm || routed(r) <= started[c] {
				return false
			}
		}
		return true
	}
	for beat := 0; beat < 100 && !moved(); beat++ {
		p.Sleep(d.cfg.HeartbeatInv)
	}
	return old.Drain(p)
}
