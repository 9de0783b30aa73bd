// Package netmodel defines the performance parameters of the simulated
// fabrics and the CPU cost model for R-tree request processing.
//
// The paper's testbed offers three interconnects per node: an Intel I350
// 1 Gbps Ethernet controller, a Mellanox ConnectX-3 40 Gbps Ethernet
// adapter, and a Mellanox ConnectX-5 EDR 100 Gbps InfiniBand adapter, on
// dual-socket 28-core Broadwell servers. The constants below are calibrated
// against public microbenchmark figures for that hardware generation
// (verbs RTTs of a few microseconds, kernel TCP per-message costs of
// several microseconds) and against the shapes in the paper's own Figures 2,
// 7, and 9. Absolute agreement with the authors' cluster is not the goal;
// preserving which resource saturates first — server CPU, server NIC, or
// client-side RTT chains — is.
package netmodel

import "time"

// Profile describes one fabric.
type Profile struct {
	// Name labels the fabric in experiment output.
	Name string
	// BandwidthBps is the NIC line rate per direction, in bits per second.
	BandwidthBps float64
	// PropagationDelay is the one-way wire plus switch latency.
	PropagationDelay time.Duration
	// NICOverhead is per-message NIC processing time on each side
	// (doorbell handling, DMA setup, completion generation).
	NICOverhead time.Duration
	// WireOverheadBytes is added to every message on the wire (headers,
	// CRCs; for TCP it covers Ethernet+IP+TCP framing).
	WireOverheadBytes int
	// Kernel models the OS network stack and is zero for RDMA fabrics.
	KernelLatency   time.Duration // extra per-message latency per side
	KernelCPUPerMsg time.Duration // CPU demand per message per side
	KernelCPUPerKB  time.Duration // CPU demand per KB copied per side
	// RDMA reports whether the fabric supports one-sided verbs.
	RDMA bool
	// DoorbellPerWQE is the posting cost of each work request after the
	// first in a doorbell-batched submission: the NIC fetches the extra
	// WQEs over one doorbell ring instead of paying full per-message setup
	// (RDMAbox-style doorbell batching). Zero means the fabric does not
	// batch doorbells and every WQE pays NICOverhead.
	DoorbellPerWQE time.Duration
	// MergeSpan is the maximum number of physically-adjacent reads a
	// doorbell batch may coalesce into one larger RDMA Read (one WQE, one
	// completion, demuxed per-request on the requester). RDMAbox-style
	// request merging: the merged read pays a single per-message setup and
	// completion cost while still serializing every byte on the wire.
	// 0 or 1 disables merging, leaving ReadBatch identical to posting each
	// read separately.
	MergeSpan int
}

// The three fabrics of the paper's evaluation cluster.
var (
	// Ethernet1G models the Intel I350 with kernel TCP.
	Ethernet1G = Profile{
		Name:              "tcp-1g",
		BandwidthBps:      1e9,
		PropagationDelay:  25 * time.Microsecond,
		NICOverhead:       500 * time.Nanosecond,
		WireOverheadBytes: 66,
		KernelLatency:     15 * time.Microsecond,
		KernelCPUPerMsg:   4 * time.Microsecond,
		KernelCPUPerKB:    400 * time.Nanosecond,
	}
	// Ethernet40G models the ConnectX-3 with kernel TCP.
	Ethernet40G = Profile{
		Name:              "tcp-40g",
		BandwidthBps:      40e9,
		PropagationDelay:  5 * time.Microsecond,
		NICOverhead:       300 * time.Nanosecond,
		WireOverheadBytes: 66,
		KernelLatency:     15 * time.Microsecond,
		KernelCPUPerMsg:   4 * time.Microsecond,
		KernelCPUPerKB:    400 * time.Nanosecond,
	}
	// InfiniBand100G models the ConnectX-5 EDR with RC verbs.
	InfiniBand100G = Profile{
		Name:              "ib-100g",
		BandwidthBps:      100e9,
		PropagationDelay:  1 * time.Microsecond,
		NICOverhead:       300 * time.Nanosecond,
		WireOverheadBytes: 30,
		RDMA:              true,
		DoorbellPerWQE:    60 * time.Nanosecond,
	}
)

// CostModel converts R-tree operation work (rtree.OpStats) into CPU service
// demands. The constants are calibrated so that a small-scope search on the
// paper's 2M-rectangle tree costs ~40-50 µs of server CPU — which makes 28
// cores saturate near the paper's fast-messaging plateau — and so that
// client-side traversal work is an order of magnitude cheaper than a
// server-side request (idle client CPUs are the resource Catfish harvests).
type CostModel struct {
	// Server-side request processing.
	SearchFixed   time.Duration // parse request + build/send response
	InsertFixed   time.Duration // parse + lock + respond
	PerNodeRead   time.Duration // per tree node visited
	PerNodeWrite  time.Duration // per tree node republished
	PerResultItem time.Duration // per result rectangle serialized

	// PerFetchItem replaces PerResultItem when the result is delivered by
	// remote fetch (RFP, arXiv:1512.07805): the server memcpys rectangles
	// into the local mailbox slot instead of marshalling them into response
	// frames and feeding the send engine, so the per-item CPU cost is a
	// fraction of the messaging cost. The NIC's responder hardware serves
	// the client's one-sided pull without server CPU involvement.
	PerFetchItem time.Duration

	// Client-side offloaded traversal.
	ClientFixed   time.Duration // per-search setup
	ClientPerNode time.Duration // decode + intersection checks per node

	// BatchedOpFixed replaces SearchFixed/InsertFixed for the second and
	// later operations executed under one batch charge: the wakeup, latch
	// acquisition, completion event, and response doorbell are paid once
	// per batch, leaving only request parsing and response marshalling as
	// per-operation fixed work.
	BatchedOpFixed time.Duration

	// PollSlice is the CPU time one idle busy-polling thread burns per
	// scheduling rotation (poll loop + context switch); it drives the
	// polling-mode oversubscription penalty of Fig 7.
	PollSlice time.Duration
}

// DefaultCostModel returns the calibrated cost model (see package comment).
func DefaultCostModel() CostModel {
	return CostModel{
		SearchFixed:    35 * time.Microsecond,
		InsertFixed:    40 * time.Microsecond,
		PerNodeRead:    1200 * time.Nanosecond,
		PerNodeWrite:   2 * time.Microsecond,
		PerResultItem:  60 * time.Nanosecond,
		PerFetchItem:   15 * time.Nanosecond,
		ClientFixed:    2 * time.Microsecond,
		ClientPerNode:  1500 * time.Nanosecond,
		BatchedOpFixed: 6 * time.Microsecond,
		PollSlice:      5 * time.Microsecond,
	}
}

// batchedFixed returns the fixed demand of the i-th (0-based) operation in
// a batch: the first pays the full per-request fixed cost, later ones only
// the amortized share. A zero BatchedOpFixed disables the discount.
func (c CostModel) batchedFixed(i int, full time.Duration) time.Duration {
	if i == 0 || c.BatchedOpFixed == 0 {
		return full
	}
	return c.BatchedOpFixed
}

// SearchDemand returns the server CPU demand of a search that visited
// nodesRead nodes and produced results, as the i-th (0-based) operation of a
// batch executed under one latch acquisition and charge; a lone request is
// operation 0.
func (c CostModel) SearchDemand(i, nodesRead, results int) time.Duration {
	return c.batchedFixed(i, c.SearchFixed) +
		time.Duration(nodesRead)*c.PerNodeRead +
		time.Duration(results)*c.PerResultItem
}

// InsertDemand returns the server CPU demand of an insert (or delete) that
// visited nodesRead nodes and republished nodesWritten, as the i-th
// operation of a batch.
func (c CostModel) InsertDemand(i, nodesRead, nodesWritten int) time.Duration {
	return c.batchedFixed(i, c.InsertFixed) +
		time.Duration(nodesRead)*c.PerNodeRead +
		time.Duration(nodesWritten)*c.PerNodeWrite
}

// FetchDemand returns the server CPU demand of a fetch-delivered search, as
// the i-th operation of a batch: the traversal is identical to fast
// messaging, but results are copied into the mailbox slot at PerFetchItem
// instead of marshalled and sent at PerResultItem.
func (c CostModel) FetchDemand(i, nodesRead, results int) time.Duration {
	return c.batchedFixed(i, c.SearchFixed) +
		time.Duration(nodesRead)*c.PerNodeRead +
		time.Duration(results)*c.PerFetchItem
}

// ClientTraversalDemand returns the client CPU demand of processing one
// fetched node during offloaded traversal.
func (c CostModel) ClientTraversalDemand(nodes int) time.Duration {
	return time.Duration(nodes) * c.ClientPerNode
}

// ClientFetchDemand returns the client CPU demand of pulling and decoding
// a fetch result of the given item count — the work the client takes over
// from the server in exchange for the server's TX/CPU savings.
func (c CostModel) ClientFetchDemand(results int) time.Duration {
	return c.ClientFixed + time.Duration(results)*c.PerResultItem
}
