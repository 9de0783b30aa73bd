package main

import (
	"fmt"
	"math/rand"
	"time"

	catfish "github.com/catfish-db/catfish"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/scenario"
	"github.com/catfish-db/catfish/internal/workload"
)

const heartbeat = 10 * time.Millisecond

// deployment is one set-up system: a bulk-loaded tree served over loopback
// TCP in this process, its client connections, and the benchmark's own
// copy of the data to check answers against.
type deployment struct {
	name  string
	tree  *catfish.Tree
	srv   *catfish.NetServer
	conns []catfish.Conn
	model *model
	fleet *scenario.MovingObjects // moving-fleet only

	served chan error
}

// newTree returns an empty tree over a region with room for items entries
// at bulk-load fill plus the splits the write streams cause.
func newTree(items int) (*catfish.Tree, error) {
	reg, err := catfish.NewMemoryRegion(items/40+4096, 4096)
	if err != nil {
		return nil, err
	}
	return catfish.NewTree(reg, catfish.TreeConfig{})
}

// setup is what setup_s times: dataset generation, bulk load, listen and
// connect. metrics is nil except in traced runs.
func setup(name string, seed int64, sc scale, metrics *catfish.Registry) (*deployment, error) {
	d := &deployment{name: name}
	var entries []catfish.Entry
	if name == "moving-fleet" {
		d.fleet = scenario.NewMovingObjects(rand.New(rand.NewSource(datasetSeed(seed))),
			scenario.MovingConfig{N: sc.movers})
		entries = d.fleet.Seed()
	} else {
		entries = workload.UniformRects(sc.items, datasetEdge, datasetSeed(seed))
	}
	var err error
	if d.tree, err = newTree(len(entries)); err != nil {
		return nil, err
	}
	if err := d.tree.BulkLoad(entries, 0); err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	d.model = newModel(entries)

	d.srv, err = catfish.Listen("127.0.0.1:0", d.tree, catfish.NetServerConfig{
		HeartbeatInterval: heartbeat,
		Metrics:           metrics,
	})
	if err != nil {
		return nil, err
	}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve() }()

	fast := []catfish.Option{catfish.WithForced(catfish.NetMethodFast)}
	plans := [][]catfish.Option{fast}
	switch name {
	case "point-offload":
		plans = [][]catfish.Option{
			// The retry budgets are raised from their defaults (8 restarts, 64
			// chunk retries): with those, about one offloaded search in three
			// million gives up ("traversal exceeded retry budget") when the
			// host deschedules the vCPU that is mid-way through a node write,
			// and a benchmark run may not contain a failed operation. Every
			// retry is still counted (rpcnet.torn_retries_per_kop,
			// rpcnet.stale_restarts_per_kop).
			{catfish.WithClientConfig(catfish.NetClientConfig{
				Forced: catfish.NetMethodOffload, MultiIssue: true,
				NodeCache: sc.nodeCache, MergeSpan: 8,
				MaxRestarts: 256, MaxChunkRetries: 4096,
			})},
			fast, // the paced writer
		}
	case "moving-fleet":
		plans = [][]catfish.Option{fast, fast}
	}
	for _, opts := range plans {
		c, err := catfish.Connect([]string{d.srv.Addr().String()}, opts...)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("connect: %w", err)
		}
		d.conns = append(d.conns, c)
	}
	return d, nil
}

// close stops the clients and the server and waits for the accept loop.
func (d *deployment) close() {
	for _, c := range d.conns {
		c.Close()
	}
	d.srv.Close()
	<-d.served
}

// writer is the connection writes go through: the second one where the
// workload has two, so point-offload's offloading reader stays read-only.
func (d *deployment) writer() catfish.Conn { return d.conns[len(d.conns)-1] }

func newStream(capacity int, step func(i int) (uint8, error)) *stream {
	return &stream{step: step, samples: make([]sample, 0, capacity)}
}

// streams builds the window's client goroutines over the deployment.
// Every MOVE and insert is mirrored into the model as it is acknowledged.
func (d *deployment) streams(in *inputs, seconds float64) []*stream {
	capacity := int(seconds * 100_000)
	search := func(c catfish.Conn) *stream {
		return newStream(capacity, func(i int) (uint8, error) {
			_, _, err := c.Search(in.Queries[i%len(in.Queries)])
			return classSearch, err
		})
	}
	switch d.name {
	case "point-offload":
		w := d.conns[1]
		ins := newStream(len(in.Inserts), func(i int) (uint8, error) {
			r, ref := in.Inserts[i%len(in.Inserts)], uint64(insertRefOff+i)
			err := w.Insert(r, ref)
			if err == nil {
				d.model.insert(r, ref)
			}
			return classOther, err
		})
		ins.interval = time.Second / insertRate
		return []*stream{search(d.conns[0]), ins}
	case "moving-fleet":
		a := d.conns[0]
		moves, next, knn := in.Moves, 0, 0
		// The searcher runs beside the MOVE client, one search per
		// nearbyEvery of its ops. Two free-running closed loops on two
		// cores fight the server's own goroutines for CPU and no metric
		// repeats; a token per few ops keeps the reads concurrent with the
		// writes and the op mix the same on every run.
		tokens := make(chan struct{}, 4) // a few in hand, so a slow search does not lose its turn
		mover := newStream(capacity, func(i int) (uint8, error) {
			if i%nearbyEvery == 0 {
				select {
				case tokens <- struct{}{}:
				default:
				}
			}
			if i%(knnEvery+1) == knnEvery {
				p := in.KNN[knn%len(in.KNN)]
				knn++
				_, _, err := a.Nearest(knnK, p[0], p[1])
				return classKNN, err
			}
			if next == len(moves) {
				moves, next = in.fleet.Tick(in.rng, moves[:0]), 0
			}
			m := moves[next]
			next++
			err := a.Move(m.From, m.To, m.Ref)
			if err == nil {
				d.model.rects[m.Ref] = m.To
			}
			return classWrite, err
		})
		nearby := search(d.conns[1])
		nearby.gate = tokens
		return []*stream{mover, nearby}
	default:
		return []*stream{search(d.conns[0])}
	}
}

// writePass is the quiesced MOVE + kNN pass that gives the search
// workloads their write_* and knn_* numbers: unloaded write latency on the
// window's own tree. Its samples join g in groups of groupLen ops, the
// write pass's counterpart of the window's slices.
func (d *deployment) writePass(in *inputs, groupLen int, g *latencyGroups, tr *tracer) *stream {
	c := d.writer()
	s := &stream{}
	s.step = func(i int) (uint8, error) {
		if i%(knnEvery+1) == knnEvery {
			p := in.KNN[(i/(knnEvery+1))%len(in.KNN)]
			_, _, err := c.Nearest(knnK, p[0], p[1])
			return classKNN, err
		}
		j := i - i/(knnEvery+1)
		ref, to := in.MoveRef[j], in.MoveTo[j]
		err := c.Move(d.model.rects[ref], to, ref)
		if err == nil {
			d.model.rects[ref] = to
		}
		return classWrite, err
	}
	total := len(in.MoveRef) + len(in.MoveRef)/knnEvery
	for i := 0; i < total; i++ {
		s.issue(i, tr)
	}
	for rest := s.samples; len(rest) >= groupLen || (len(rest) > 0 && len(g[classWrite]) == 0); {
		n := min(groupLen, len(rest))
		var write, knn []int32
		for _, sm := range rest[:n] {
			if sm.class == classWrite {
				write = append(write, sm.ns)
			} else {
				knn = append(knn, sm.ns)
			}
		}
		g.add(classWrite, write)
		g.add(classKNN, knn)
		rest = rest[n:]
	}
	return s
}

// model is the benchmark's own copy of what the tree should hold.
type model struct {
	rects []geo.Rect    // by ref, for the bulk-loaded entries (refs 0..n-1)
	extra []rtree.Entry // entries inserted since
}

func newModel(entries []catfish.Entry) *model {
	m := &model{rects: make([]geo.Rect, len(entries))}
	for _, e := range entries {
		m.rects[e.Ref] = e.Rect
	}
	return m
}

func (m *model) insert(r geo.Rect, ref uint64) {
	m.extra = append(m.extra, rtree.Entry{Rect: r, Ref: ref})
}
