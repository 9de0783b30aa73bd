package catfish

import (
	"github.com/catfish-db/catfish/internal/rpcnet"
	"github.com/catfish-db/catfish/internal/shard"
)

// Sharded deployments: the dataset is spatially partitioned into K shard
// rectangles, each served by its own Catfish server with its own adaptive
// switch, and a router scatters searches to every shard whose coverage
// intersects the query while writes go to the unique owning shard. See
// internal/shard for the partitioning scheme and DESIGN.md for the
// exactness invariant.
type (
	// ShardMap is a versioned spatial partition of the plane into K cells.
	ShardMap = shard.Map
	// ShardConfig tunes BuildShardMap.
	ShardConfig = shard.Config
	// ShardRouterStats counts a router's scatter/gather activity.
	ShardRouterStats = shard.RouterStats
	// ShardUnhealthyError reports which shard rejected a write for missing
	// heartbeats; it matches ErrShardUnhealthy via errors.Is.
	ShardUnhealthyError = shard.UnhealthyError
	// NetRouter is the real-TCP scatter-gather client of a sharded
	// deployment: one connection (and one adaptive switch) per shard.
	NetRouter = rpcnet.Router
)

// ErrShardUnhealthy marks writes rejected because the owning shard has
// stopped heartbeating.
var ErrShardUnhealthy = shard.ErrUnhealthy

// DefaultShardHealthMultiple is the default liveness window in heartbeat
// intervals: a shard with no heartbeat for this many intervals is skipped
// by searches and rejects writes.
const DefaultShardHealthMultiple = shard.DefaultHealthMultiple

// BuildShardMap partitions entries into cfg.K shard rectangles by
// recursive longest-axis splitting. Every server of a deployment must
// build the map from the identical dataset; the map's Version doubles as
// a checksum that Connect verifies against every shard.
func BuildShardMap(entries []Entry, cfg ShardConfig) (*ShardMap, error) {
	return shard.Build(entries, cfg)
}
