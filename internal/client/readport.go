package client

import (
	"time"

	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
)

// ReadPort is the simulated fabric's proto.ReadPort: a connection's
// doorbell-batched RDMA Reads on its data QP and the pop of that QP's
// completion queue, its heartbeat mailbox, virtual time and the client CPU
// an examined node costs. The R-tree client's transport embeds it and the
// key-value client walks its B+-tree through it. Bind a process with On.
type ReadPort struct {
	*reads
	p *sim.Proc
}

type reads struct {
	host  *fabric.Host
	cost  netmodel.CostModel
	ep    *server.Endpoint
	batch []fabric.ReadReq // the doorbell batch under construction
}

// NewReadPort returns the read port of the connection ep, charging host's
// CPU by cost.
func NewReadPort(host *fabric.Host, cost netmodel.CostModel, ep *server.Endpoint) ReadPort {
	return ReadPort{reads: &reads{host: host, cost: cost, ep: ep}}
}

// On returns the port driven by process p; use it from p.
func (r ReadPort) On(p *sim.Proc) ReadPort {
	r.p = p
	return r
}

func (r ReadPort) Now() time.Duration { return r.p.Now() }

// Post posts the wave as one doorbell-batched submission on the data QP:
// full reads against the chunk region, version reads against its
// versions-only surface. The fabric merges consecutive adjacent requests up
// to its profile's span.
func (r ReadPort) Post(wave []proto.Read) (posted, wqes int, err error) {
	mem, vers := r.ep.RegionMem, r.ep.RegionVers
	r.batch = r.batch[:0]
	for _, rd := range wave {
		req := fabric.ReadReq{Src: mem, Off: mem.ChunkOffset(rd.Chunk), Size: r.ep.ChunkSize, Tag: rd.Tag}
		if rd.Versions {
			req = fabric.ReadReq{Src: vers, Off: vers.VersionsOffset(rd.Chunk), Size: vers.VersionsSize(), Tag: rd.Tag}
		}
		r.batch = append(r.batch, req)
	}
	return r.ep.DataQP.ReadBatch(r.p, r.batch)
}

// Pop blocks on the data QP's completion queue.
func (r ReadPort) Pop() (proto.Done, error) {
	comp := r.ep.DataQP.CQ().Pop(r.p)
	return proto.Done{Tag: comp.Tag, Data: comp.Data, Err: comp.Err}, nil
}

func (r ReadPort) Charge() {
	if cpu := r.host.CPU(); cpu != nil {
		cpu.Run(r.p, r.cost.ClientTraversalDemand(1))
	}
}

// Heartbeat reads the mailbox's CPU and TX utilization words.
func (r ReadPort) Heartbeat() (cpu, tx float64) {
	v := server.DecodeHeartbeatMailbox(r.ep.HeartbeatM.Bytes())
	return v.Util, v.TXUtil
}

// ClearHeartbeat clears only the utilization word: the mailbox's second
// word carries the root version and must persist for the lease check.
func (r ReadPort) ClearHeartbeat() {
	clear(r.ep.HeartbeatM.Bytes()[:8])
}

// RootVersion reads the root version published alongside the utilization
// (0 when the server has not heartbeated yet).
func (r ReadPort) RootVersion() uint64 {
	return server.DecodeHeartbeatMailbox(r.ep.HeartbeatM.Bytes()).RootVer
}
