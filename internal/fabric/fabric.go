// Package fabric provides the communication layer of the simulated cluster:
// hosts with NICs, RDMA verbs over reliable-connection queue pairs (RDMA
// Read, RDMA Write, RDMA Write with Immediate Data, completion queues and
// event channels), and a kernel-TCP message transport for the paper's
// socket-based baselines.
//
// Time is modelled by the sim engine (NIC serialization pipes, propagation,
// per-message overheads, kernel CPU demands); data movement is real — bytes
// are copied between real buffers at the virtual instants the model
// dictates, so ring-buffer framing, version validation, and torn reads are
// exercised genuinely.
package fabric

import (
	"errors"
	"fmt"
	"time"

	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/sim"
)

// Errors returned by fabric operations.
var (
	ErrBounds     = errors.New("fabric: access out of registered bounds")
	ErrWrongHost  = errors.New("fabric: memory not registered on the remote host")
	ErrNotAligned = errors.New("fabric: region read must cover exactly one chunk")
)

// Network is one fabric (a profile plus the hosts attached to it). A
// simulation may run several networks over the same engine (the paper's
// nodes have all three NICs installed).
type Network struct {
	e    *sim.Engine
	prof netmodel.Profile
}

// NewNetwork returns a network with the given profile.
func NewNetwork(e *sim.Engine, prof netmodel.Profile) *Network {
	return &Network{e: e, prof: prof}
}

// Host is one machine attached to the network: a NIC (TX/RX serialization
// pipes plus a responder-direction pipe for one-sided READ response data)
// and optionally a CPU that kernel TCP processing is charged to.
type Host struct {
	name string
	net  *Network
	tx   *sim.Pipe
	rx   *sim.Pipe
	// rdtx serializes the TX-direction data of inbound one-sided READs:
	// the NIC's hardware responder engine DMAs the requested bytes out
	// without involving the host CPU or its send queue. Modelling it as a
	// separate pipe captures RFP's verb asymmetry (arXiv:1512.07805):
	// in-bound requests plus out-bound remote fetches leave the host's
	// *send engine* (tx) carrying only what the CPU actually posts, which
	// is exactly the signal the heartbeat's TX-utilization word reports
	// and the 3-way switch acts on. Port-level TX is tx + rdtx.
	rdtx *sim.Pipe
	cpu  *sim.CPU
}

// NewHost attaches a host. cpu may be nil for hosts whose kernel costs are
// accounted elsewhere (e.g. the RDMA-only polling server); TCP transfers to
// and from such hosts skip the kernel CPU charge but keep its latency.
func (n *Network) NewHost(name string, cpu *sim.CPU) *Host {
	return &Host{
		name: name,
		net:  n,
		tx:   sim.NewPipe(n.prof.BandwidthBps),
		rx:   sim.NewPipe(n.prof.BandwidthBps),
		rdtx: sim.NewPipe(n.prof.BandwidthBps),
		cpu:  cpu,
	}
}

// CPU returns the host CPU (may be nil).
func (h *Host) CPU() *sim.CPU { return h.cpu }

// TXBytes returns total bytes sent by the host's send engine — messages
// the CPU posted (wire overhead included). READ response data served by
// the responder engine is accounted separately (ReadTXGbps).
func (h *Host) TXBytes() uint64 { return h.tx.Bytes() }

// TXGbps returns the mean send-engine transmit rate over elapsed.
func (h *Host) TXGbps(elapsed time.Duration) float64 { return h.tx.Gbps(elapsed) }

// ReadTXGbps returns the mean responder-engine transmit rate over elapsed.
func (h *Host) ReadTXGbps(elapsed time.Duration) float64 { return h.rdtx.Gbps(elapsed) }

// RXGbps returns the mean receive rate over elapsed.
func (h *Host) RXGbps(elapsed time.Duration) float64 { return h.rx.Gbps(elapsed) }

// LineRateBps returns the NIC line rate, for windowed utilization math.
func (h *Host) LineRateBps() float64 { return h.net.prof.BandwidthBps }

// deliver books a message of size payload bytes from a to b posted at the
// current virtual time and returns its delivery instant (remote memory
// written / message available), accounting NIC overheads, serialization on
// both NICs, propagation, and — when kernel is true — the kernel stack
// latency on both sides.
func (n *Network) deliver(from, to *Host, size int, kernel bool) time.Duration {
	return n.deliverPost(from, to, size, kernel, n.prof.NICOverhead)
}

// deliverPost is deliver with an explicit posting-side NIC overhead: the
// second and later WQEs of a doorbell-batched submission pay the reduced
// DoorbellPerWQE cost instead of full per-message setup. The completion
// side always pays NICOverhead.
func (n *Network) deliverPost(from, to *Host, size int, kernel bool, postOH time.Duration) time.Duration {
	s := size + n.prof.WireOverheadBytes
	now := n.e.Now()
	post := now + postOH
	extra := time.Duration(0)
	if kernel {
		extra = 2 * n.prof.KernelLatency
		post += n.prof.KernelLatency
	}
	txDone := from.tx.Reserve(post, s)
	rxDone := to.rx.Reserve(post+n.prof.PropagationDelay, s)
	d := txDone + n.prof.PropagationDelay
	if rxDone > d {
		d = rxDone
	}
	d += n.prof.NICOverhead
	if kernel {
		d = d - n.prof.KernelLatency + extra // sender-side latency already in post
	}
	return d
}

// deliverRead books the data leg of a one-sided READ response from the
// target host back to the reader: the target's hardware responder engine
// (rdtx pipe) serializes the bytes — its send engine and CPU are not
// involved — and the reader's RX pipe receives them as usual.
func (n *Network) deliverRead(from, to *Host, size int) time.Duration {
	s := size + n.prof.WireOverheadBytes
	now := n.e.Now()
	post := now + n.prof.NICOverhead
	txDone := from.rdtx.Reserve(post, s)
	rxDone := to.rx.Reserve(post+n.prof.PropagationDelay, s)
	d := txDone + n.prof.PropagationDelay
	if rxDone > d {
		d = rxDone
	}
	return d + n.prof.NICOverhead
}

// kernelDemand is the CPU cost of pushing one message of size bytes through
// the kernel network stack on one side.
func (n *Network) kernelDemand(size int) time.Duration {
	return n.prof.KernelCPUPerMsg +
		time.Duration(float64(size)/1024*float64(n.prof.KernelCPUPerKB))
}

// Memory is an RDMA-registered buffer on a host, addressable by remote QPs.
type Memory struct {
	host *Host
	buf  []byte
}

// RegisterMemory registers a fresh buffer of size bytes on the host,
// mirroring the paper's register-once design.
func (h *Host) RegisterMemory(size int) *Memory {
	return &Memory{host: h, buf: make([]byte, size)}
}

// Bytes exposes the buffer for local (same-host) access; remote access must
// go through verbs.
func (m *Memory) Bytes() []byte { return m.buf }

// Host returns the owning host.
func (m *Memory) Host() *Host { return m.host }

// ReadAt copies len(dst) bytes starting at off into dst.
func (m *Memory) ReadAt(off int, dst []byte) error {
	if off < 0 || off+len(dst) > len(m.buf) {
		return ErrBounds
	}
	copy(dst, m.buf[off:])
	return nil
}

var _ Readable = (*Memory)(nil)

// Readable is a remote data source an RDMA Read can fetch from.
type Readable interface {
	// ReadAt copies len(dst) bytes at offset off into dst; it is invoked at
	// the virtual instant the remote NIC performs the DMA.
	ReadAt(off int, dst []byte) error
	// Host returns the host owning the memory.
	Host() *Host
}

// RegionMemory adapts a region.Region as an RDMA-readable source. Reads
// must be chunk-aligned and cover a whole number of chunks: single chunks
// for the plain offload access pattern, longer spans for merged adjacent
// reads. Each chunk of a span is snapshotted through the region's seqlock
// surface independently, so a concurrent writer tears at most the chunks
// it actually touched.
type RegionMemory struct {
	host *Host
	reg  *region.Region
}

// RegisterRegion registers reg on the host.
func (h *Host) RegisterRegion(reg *region.Region) *RegionMemory {
	return &RegionMemory{host: h, reg: reg}
}

// Host returns the owning host.
func (m *RegionMemory) Host() *Host { return m.host }

// Region returns the underlying region.
func (m *RegionMemory) Region() *region.Region { return m.reg }

// ChunkOffset returns the region offset of chunk id, for use with RDMA
// Read — the paper's "registered base address + chunk ID as offset".
func (m *RegionMemory) ChunkOffset(id int) int { return id * m.reg.ChunkSize() }

// ReadAt implements Readable; the read must be chunk-aligned and cover a
// whole number of chunks.
func (m *RegionMemory) ReadAt(off int, dst []byte) error {
	cs := m.reg.ChunkSize()
	if off%cs != 0 || len(dst) == 0 || len(dst)%cs != 0 {
		return fmt.Errorf("%w: off %d len %d", ErrNotAligned, off, len(dst))
	}
	for at := 0; at < len(dst); at += cs {
		if err := m.reg.ReadChunkRaw(off/cs+at/cs, dst[at:at+cs]); err != nil {
			return err
		}
	}
	return nil
}

var _ Readable = (*RegionMemory)(nil)

// RegionVersions adapts a region's per-cacheline version words as an
// RDMA-readable source: reads must cover exactly one chunk's version
// vector (region.VersionsSize bytes — 512 B for the default geometry).
// This is the wire footprint of the node cache's revalidation reads; on
// hardware it corresponds to a gather of the version words, which the
// paper's register-once layout makes addressable like any other bytes.
type RegionVersions struct {
	host *Host
	reg  *region.Region
}

// RegisterRegionVersions registers the version view of reg on the host.
func (h *Host) RegisterRegionVersions(reg *region.Region) *RegionVersions {
	return &RegionVersions{host: h, reg: reg}
}

// Host returns the owning host.
func (m *RegionVersions) Host() *Host { return m.host }

// VersionsSize returns the bytes of one chunk's version vector.
func (m *RegionVersions) VersionsSize() int { return m.reg.VersionsSize() }

// VersionsOffset returns the offset of chunk id's version vector.
func (m *RegionVersions) VersionsOffset(id int) int { return id * m.reg.VersionsSize() }

// ReadAt implements Readable; the read must cover exactly one chunk's
// version vector.
func (m *RegionVersions) ReadAt(off int, dst []byte) error {
	vs := m.reg.VersionsSize()
	if off%vs != 0 || len(dst) != vs {
		return fmt.Errorf("%w: off %d len %d", ErrNotAligned, off, len(dst))
	}
	return m.reg.ReadVersions(off/vs, dst)
}

var _ Readable = (*RegionVersions)(nil)
