package catfish

import (
	"github.com/catfish-db/catfish/internal/btree"
	"github.com/catfish-db/catfish/internal/cuckoo"
	"github.com/catfish-db/catfish/internal/kv"
	"github.com/catfish-db/catfish/internal/rtree"
)

// The paper's §VI frames Catfish as a framework for link-based data
// structures beyond R-trees; these exports provide two more structures over
// the same region/version machinery: a B+-tree, which a KVClient reads
// one-sided by the R-tree's offloaded walk, and a cuckoo hash table, whose
// two-bucket probe is no rooted walk and keeps its own CuckooReader.
type (
	// BTree is a B+-tree stored node-per-chunk in a Region.
	BTree = btree.Tree
	// BTreeConfig tunes a BTree.
	BTreeConfig = btree.Config
	// CuckooTable is a two-choice cuckoo hash table over a Region.
	CuckooTable = cuckoo.Table
	// CuckooConfig tunes a CuckooTable.
	CuckooConfig = cuckoo.Config
	// CuckooReader performs one-sided remote cuckoo lookups.
	CuckooReader = cuckoo.Reader
	// Neighbor is one R-tree nearest-neighbor result.
	Neighbor = rtree.Neighbor
)

// NewBTree creates an empty B+-tree whose nodes live in reg.
func NewBTree(reg *Region, cfg BTreeConfig) (*BTree, error) {
	return btree.New(reg, cfg)
}

// NewCuckooTable creates a cuckoo table using every chunk of reg as one
// bucket (use small chunks, e.g. 256 B, for cheap one-sided lookups).
func NewCuckooTable(reg *Region, cfg CuckooConfig) (*CuckooTable, error) {
	return cuckoo.New(reg, cfg)
}

// The full adaptive stack over a B+-tree: a key-value service with fast
// messaging, one-sided offloading, and the Algorithm 1 switch — the §VI
// framework demonstrated end to end (see bench.Framework).
type (
	// KVServer serves a B+-tree key-value store over the simulated fabric.
	KVServer = kv.Server
	// KVServerConfig configures a KVServer.
	KVServerConfig = kv.ServerConfig
	// KVClient is an adaptive key-value client.
	KVClient = kv.Client
	// KVClientConfig configures a KVClient.
	KVClientConfig = kv.ClientConfig
	// KVEndpoint is the client's connection handle.
	KVEndpoint = kv.Endpoint
)

// NewKVServer creates a key-value server over a B+-tree.
func NewKVServer(cfg KVServerConfig) (*KVServer, error) { return kv.NewServer(cfg) }

// NewKVClient creates an adaptive key-value client.
func NewKVClient(cfg KVClientConfig) (*KVClient, error) { return kv.NewClient(cfg) }
