package catfish

import (
	"github.com/catfish-db/catfish/internal/rpcnet"
)

// Real-network (stdlib net) types: the same Catfish protocol served over
// actual TCP sockets, with one-sided reads emulated by READ requests that
// name a registered memory (tree chunks, version words or the fetch
// mailbox), answered lock-free from the region (version checks still
// protect readers). See examples/realnet and cmd/catfish-server / catfish-client.
type (
	// NetServer serves a Catfish R-tree over real TCP.
	NetServer = rpcnet.Server
	// NetServerConfig configures a NetServer.
	NetServerConfig = rpcnet.ServerConfig
	// NetClient is a Catfish client over real TCP.
	NetClient = rpcnet.Client
	// NetClientConfig configures a NetClient.
	NetClientConfig = rpcnet.ClientConfig
	// NetReplicaConfig arms shard replication on a NetServer
	// (NetServerConfig.Replica).
	NetReplicaConfig = rpcnet.ReplicaConfig
	// NetMethod identifies the search path used by a NetClient.
	NetMethod = rpcnet.Method
)

// Real-network search methods.
const (
	// NetMethodFast sends the search to the server.
	NetMethodFast = rpcnet.MethodFast
	// NetMethodOffload traverses the tree with emulated one-sided reads.
	NetMethodOffload = rpcnet.MethodOffload
)

// Unified connection API: Connect resolves one or many addresses — plus
// functional options for tuning, replication, and connection sharing —
// into a Conn, the method set shared by the direct client and the
// scatter-gather router.
type (
	// Conn is the unified client-side handle returned by Connect.
	Conn = rpcnet.Conn
	// Option tunes Connect (see the With* constructors).
	Option = rpcnet.Option
	// MuxPool shares a bounded set of multiplexed TCP connections among
	// many logical clients (WithMuxPool).
	MuxPool = rpcnet.MuxPool
)

// Connect options, re-exported from internal/rpcnet.
var (
	WithClientConfig   = rpcnet.WithClientConfig
	WithForced         = rpcnet.WithForced
	WithSeed           = rpcnet.WithSeed
	WithDeadline       = rpcnet.WithDeadline
	WithBackups        = rpcnet.WithBackups
	WithHealthMultiple = rpcnet.WithHealthMultiple
	WithMuxPool        = rpcnet.WithMuxPool
)

// Connect is the unified entry point to a Catfish deployment over real
// sockets: one address yields a direct client, several (or any
// router-only option) a scatter-gather router, and WithMuxPool
// multiplexes either shape over shared connections.
func Connect(addrs []string, opts ...Option) (Conn, error) {
	return rpcnet.Connect(addrs, opts...)
}

// NewMuxPool builds a connection pool capped at maxPerAddr multiplexed
// connections per server address, for WithMuxPool.
func NewMuxPool(maxPerAddr int) *MuxPool {
	return rpcnet.NewMuxPool(maxPerAddr)
}

// Listen binds addr and returns a real-network server for tree — a *Tree,
// or a *KVStore; call Serve to accept connections.
func Listen(addr string, tree Store, cfg NetServerConfig) (*NetServer, error) {
	return rpcnet.Listen(addr, tree, cfg)
}
