// Package bench regenerates every table and figure of the paper's
// evaluation. Each FigN function runs the corresponding experiment on the
// simulated cluster and returns an aligned text table whose rows mirror the
// figure's series, plus the raw results for programmatic checks.
//
// The defaults run a faithful but time-boxed configuration (the full
// 2M-rectangle tree, 600 requests per client instead of the paper's
// 10,000, and a heartbeat interval scaled to the shorter runs); Options.Full
// restores the paper's exact parameters, and Options.Quick shrinks
// everything for unit tests. EXPERIMENTS.md records paper-vs-measured
// numbers for the default configuration.
package bench

import (
	"time"

	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/workload"
)

// Options scales the experiment suite.
type Options struct {
	// DatasetSize is the tree's item count (paper: 2,000,000).
	DatasetSize int
	// Requests per client (paper: 10,000).
	Requests int
	// Clients are the client-count sweep points (paper: 32–256).
	Clients []int
	// HeartbeatInv is the heartbeat/Algorithm-1 interval. The paper uses
	// 10 ms against ~10 s runs; the scaled default keeps the same
	// heartbeats-per-run ratio for the shorter default runs.
	HeartbeatInv time.Duration
	// BatchSize is the client batch size B used by the batched figure
	// columns (default 16); the batch ablation sweeps it explicitly.
	BatchSize int
	// Seed drives all randomness.
	Seed int64

	// Quick shrinks everything to smoke-test size.
	Quick bool
	// Full restores the paper's exact parameters (slow).
	Full bool
}

func (o Options) withDefaults() Options {
	if o.Quick {
		if o.DatasetSize == 0 {
			o.DatasetSize = 50_000
		}
		if o.Requests == 0 {
			o.Requests = 100
		}
		if len(o.Clients) == 0 {
			o.Clients = []int{8, 16}
		}
		if o.HeartbeatInv == 0 {
			o.HeartbeatInv = time.Millisecond
		}
	}
	if o.Full {
		if o.DatasetSize == 0 {
			o.DatasetSize = 2_000_000
		}
		if o.Requests == 0 {
			o.Requests = 10_000
		}
		if len(o.Clients) == 0 {
			o.Clients = []int{32, 64, 128, 256}
		}
		if o.HeartbeatInv == 0 {
			o.HeartbeatInv = 10 * time.Millisecond
		}
	}
	if o.DatasetSize == 0 {
		o.DatasetSize = 2_000_000
	}
	if o.Requests == 0 {
		o.Requests = 600
	}
	if len(o.Clients) == 0 {
		o.Clients = []int{32, 64, 128, 256}
	}
	if o.HeartbeatInv == 0 {
		o.HeartbeatInv = 2 * time.Millisecond
	}
	if o.BatchSize == 0 {
		o.BatchSize = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// datasetCache memoizes the uniform dataset and its bulk-loaded tree so a
// sweep pays the 2M-rectangle load once. The cached tree is only handed to
// search-only runs (inserts would leak between cells).
type datasetCache struct {
	opts    Options
	uniform []rtree.Entry
	tree    *rtree.Tree
	rea02   []rtree.Entry
	reaTree *rtree.Tree
}

func newCache(o Options) *datasetCache { return &datasetCache{opts: o} }

func (c *datasetCache) uniformData() []rtree.Entry {
	if c.uniform == nil {
		c.uniform = workload.UniformRects(c.opts.DatasetSize, 0.0001, c.opts.Seed)
	}
	return c.uniform
}

// uniformTree returns a shared pre-built tree for search-only runs.
func (c *datasetCache) uniformTree() (*rtree.Tree, error) {
	if c.tree == nil {
		t, err := buildTree(c.uniformData())
		if err != nil {
			return nil, err
		}
		c.tree = t
	}
	return c.tree, nil
}

func (c *datasetCache) rea02Data() []rtree.Entry {
	if c.rea02 == nil {
		n := workload.Rea02Size
		if c.opts.DatasetSize < 2_000_000 {
			// Scale rea02 proportionally to the configured dataset size.
			n = c.opts.DatasetSize * workload.Rea02Size / 2_000_000
			if n < 10_000 {
				n = 10_000
			}
		}
		c.rea02 = workload.Rea02Like(workload.Rea02Config{N: n, Seed: c.opts.Seed})
	}
	return c.rea02
}

func (c *datasetCache) rea02Tree() (*rtree.Tree, error) {
	if c.reaTree == nil {
		t, err := buildTree(c.rea02Data())
		if err != nil {
			return nil, err
		}
		c.reaTree = t
	}
	return c.reaTree, nil
}

// buildTree bulk-loads items into a fresh region-backed tree.
func buildTree(items []rtree.Entry) (*rtree.Tree, error) {
	const maxEntries = 64
	perLeaf := maxEntries / 2
	nodes := len(items)/perLeaf + len(items)/(perLeaf*perLeaf) + 1024
	reg, err := region.New(nodes*2, 4096)
	if err != nil {
		return nil, err
	}
	t, err := rtree.New(reg, rtree.Config{MaxEntries: maxEntries})
	if err != nil {
		return nil, err
	}
	data := append([]rtree.Entry(nil), items...)
	if err := t.BulkLoad(data, 0); err != nil {
		return nil, err
	}
	return t, nil
}
