#!/usr/bin/env bash
# Every targeted go test gate, written once: CI runs this file, and
# TestGates (gates_test.go) checks each line against the tests its packages
# declare, so a renamed test fails tier-1 instead of silently matching
# nothing. A line is: gate COUNT race|norace PATTERN PACKAGE... # why.
# Run it from anywhere: bash .github/gates.sh (every line runs; failures
# are listed at the end).
set -euo pipefail
cd "$(dirname "$0")/.."

failed=()
gate() {
	local count=$1 race=$2 run=$3
	shift 3
	local flags=(-count="$count" -run "$run")
	[ "$race" = race ] && flags+=(-race)
	echo "== go test ${flags[*]} $*"
	go test "${flags[@]}" "$@" || failed+=("go test ${flags[*]} $*")
}

# The deterministic sim pins: every layer's parent-captured golden and the rendered text of every quick figure and ablation table.
gate 1 norace 'Golden|Quick' ./internal/cluster/ ./bench/ ./internal/shard/ ./internal/client/ ./internal/server/ ./internal/rtree/ ./internal/proto/  # "the refactor moved no number" is a test
gate 1 norace 'TestScenarioGolden' ./bench/  # the scenario golden, a second uncached run
# Whole packages again under the race detector: timing-sensitive code (heartbeat liveness, scatter-gather, elections, mux, prefetch) gets more schedules.
gate 6 race . ./internal/proto/ ./internal/client/  # the one client, server and offload core, and the sim client over it
gate 2 race . ./internal/shard/ ./internal/cluster/ ./internal/server/ ./internal/rpcnet/ ./internal/fabric/ ./internal/nodecache/ ./internal/telemetry/ ./internal/replica/ ./internal/scenario/ ./internal/geo/  # the rest of the subsystem
# The client, server and router cores: parent-captured sim goldens and the sim equivalence scripts.
gate 2 race 'TestClientSimGolden|TestServerSimGolden|TestRouterSimGolden|TestMoveEquivalenceSim|TestKNNEquivalenceSim|TestKNNTiesSim|TestShardedGolden|TestMergeSpanOneEquivalence|FailoverKillPrimary|FailoverDeterminism|ReplicasOneEquivalence|TestDeployDriveReplicated' ./internal/client/ ./internal/server/ ./internal/shard/ ./internal/cluster/  # the core goldens; MOVE/kNN against one tree, ties included; merge span 1; kill-a-primary on the sim
# The offloaded traversal (DESIGN.md §5.17) over a fake transport with both indexes.
gate 2 race 'TestOffload|TestExpandMatchesReference|TestSingleIssueSnapshotGolden|TestMoveFleetInPlace|TestMoveTeleportOneDescent|TestMoveInPlacePropagateRefused|TestReplicationExplorer|TestRangeOffloadPath|TestKVNodeCache|TestGetBatchOffloadRoutesOneSided|TestKVCrossTransport|TestKeyCodecEdgeKeys' ./internal/proto/ ./internal/kv/  # the walk with both indexes, kv's reads through it (B-link move-right under splits), MOVE in place, replication fault explorer
gate 2 race 'TestPutReturnsDropped' ./internal/nodecache/  # the node each Put hands back to the walk
# The write path (DESIGN.md §5.2, §5.5, §5.13) and the trees' read contract.
gate 2 race 'TestDeltaPublish|TestConcurrentReadersNeverSeeMixedPayload|TestSlab|TestReadChunkRawMatchesReference|Mailbox' ./internal/region/  # delta publish, slabs, mailbox allocator hammer
gate 2 race 'TestOffloadEvictionMidTraversal|TestOffloadStageStamps|TestOffloadFailedRevalidationFallsThrough|TestMoveFleetInPlace|TestSearchMatchesReference|TestConcurrentReads|TestCheckInvariantsCatchesMissingCacheSlot|TestChooseLeafSubtreeMatchesReference|TestShapeGolden|TestRelocate|TestUnchangedMBRWritesOneNode|TestNearest' ./internal/proto/ ./internal/rtree/ ./internal/btree/  # evicting cache mid-walk, stage stamps, refused revalidation; the trees' scans and ChooseSubtree against references, their read contract, in-place MOVE, kNN
gate 2 race 'TestRelocateInPlaceReadersSeeOldOrNew' ./internal/rtree/  # raw readers beside in-place relocations
# Real sockets (internal/rpcnet): cross-transport scripts, run to completion, the mux, failover, resharding, scenarios, the result pipeline.
gate 2 race 'TestRouterCrossTransport|TestClientCrossTransport|TestServerCrossTransport|TestExecBatchUndecodableReply|TestReadTokenHandoff|TestIdleMuxStillReads|TestMuxCloseUnblocksReader|TestMailboxCapacityBoundary|TestInlineRespectsWorkerBound|TestPipelinedFrameQueues|TestConnWriterOrdering|TestStageMetrics|TestSpanReadsOverTCP|TestPrefetchOverTCP|TestLeaseSyncOnTraversal|TestOffloadReadFailures|TestOneSidedReadRepliesByteIdentical|TestMux|TestStreamID|TestStreamSeq|TestSlowReader|TestShutdownConcurrentDials|TestAdmissionShedsTyped|TestNetMoveEquivalence|TestNetKNNMatchesLocal|TestNetScenarioHammer|TestStreamedSegmentsByteIdentical|TestPipelineMatchesLocalTree|TestFrameOwnershipHammer' ./internal/rpcnet/  # every named TCP contract
gate 2 race 'FailoverKillPrimary|ZombiePrimaryFenced|LiveReshard|SplitShard|DrainKeepsRacingWrites|ElasticScrape|ElasticCloseWaitsDrain|ShardMapIntegrity|StaleMapNotAdopted|TestReplicationCrossTransport|TestReshardCrossTransport' ./internal/rpcnet/  # failover, zombie fencing, live resharding and its fence on both transports, replication script
gate 2 race 'TestMuxCloseUnblocksReader|TestClientCrossTransport/offload|TestRouterCrossTransport/primary-kill' ./internal/rpcnet/  # two more schedules each: Close beside a blocked read, the sim-vs-TCP offload rows, router failover on both transports
# Loops: rare interleavings need many runs, without the race detector's slowdown.
gate 500 norace 'TestConcurrentReadersAndWriter$|TestNodeCacheConcurrentWriterOverTCP$' ./internal/rpcnet/  # offload retry budget under a live writer
gate 200 norace 'TestReadTokenHandoff$' ./internal/rpcnet/  # a lost read-token hand-off hangs a call
gate 60 norace 'TestShutdownConcurrentDials$' ./internal/rpcnet/  # a dial racing a closing listener
# Assertions the race detector breaks: it allocates and slows everything down.
gate 1 norace 'ZeroAlloc|OneAlloc|AllocCeiling' ./internal/wire/ ./internal/region/ ./internal/rtree/ ./internal/rpcnet/ ./internal/kv/  # exact allocation counts on the hot paths
gate 1 norace 'TestC10K' ./internal/rpcnet/  # ten thousand clients over 64 connections, p99 bounded
gate 1 norace 'TestInPlaceMovesKeepSearchQuality' ./internal/scenario/  # a statistic over 240k single-goroutine writes

if [ ${#failed[@]} -gt 0 ]; then
	printf 'FAILED: %s\n' "${failed[@]}"
	exit 1
fi
