package catfish

import (
	"github.com/catfish-db/catfish/internal/btree"
	"github.com/catfish-db/catfish/internal/kv"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/rtree"
)

// The paper's §VI frames Catfish as a framework for link-based data
// structures beyond R-trees. A B+-tree lives on the same region/version
// machinery, and a KVStore serves it through the one server core — a Server
// on the simulated fabric, Listen on TCP — to clients whose reads take the
// same adaptive switch and offloaded walk (see bench.Framework).
type (
	// BTree is a B+-tree stored node-per-chunk in a Region.
	BTree = btree.Tree
	// BTreeConfig tunes a BTree.
	BTreeConfig = btree.Config
	// Neighbor is one R-tree nearest-neighbor result.
	Neighbor = rtree.Neighbor
	// Store is the index a server runs: a *Tree, or a *KVStore.
	Store = proto.Store
	// KVStore is a BTree served as a key-value store.
	KVStore = kv.Store
	// KVClient is an adaptive key-value client on the simulated fabric.
	KVClient = kv.Client
	// KVClientConfig configures a KVClient; its Endpoint is one a Server
	// over a KVStore returned.
	KVClientConfig = kv.ClientConfig
)

// NewBTree creates an empty B+-tree whose nodes live in reg.
func NewBTree(reg *Region, cfg BTreeConfig) (*BTree, error) {
	return btree.New(reg, cfg)
}

// NewKVStore returns the key-value store over t, for a ServerConfig's Tree
// or Listen.
func NewKVStore(t *BTree) *KVStore { return kv.NewStore(t) }

// NewKVClient creates an adaptive key-value client.
func NewKVClient(cfg KVClientConfig) (*KVClient, error) { return kv.NewClient(cfg) }
