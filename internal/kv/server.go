// Package kv is the paper's §VI framework claim made concrete end to end:
// a key-value service built from exactly the Catfish triad — RDMA-Write
// fast messaging through ring buffers, one-sided offloaded traversal of a
// region-resident B+-tree, and the adaptive Algorithm 1 switch driven by
// server CPU heartbeats — with none of the machinery specific to R-trees.
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/catfish-db/catfish/internal/btree"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/ringbuf"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// ServerConfig configures a KV server.
type ServerConfig struct {
	Engine *sim.Engine
	Host   *fabric.Host
	Tree   *btree.Tree
	Cost   netmodel.CostModel
	// HeartbeatInterval between utilization pushes (0 disables, which also
	// disables adaptive clients).
	HeartbeatInterval time.Duration
	// StagedNodeWrites opens torn-read windows on node publishes.
	StagedNodeWrites bool
}

// ringSize is the per-direction ring size; maxSegmentPairs caps the pairs
// of one response segment (~4 KB).
const (
	ringSize        = 256 << 10
	maxSegmentPairs = 4096 / 16
)

// ServerStats aggregates server-side counters.
type ServerStats struct {
	Gets    uint64
	Puts    uint64
	Deletes uint64
	Ranges  uint64
	Pairs   uint64
	// Batches counts batch containers executed; BatchedOps the operations
	// they carried (each also counted in its per-type counter above).
	Batches    uint64
	BatchedOps uint64
}

// Server serves a B+-tree key-value store over the simulated fabric. Like
// the R-tree server it is event-based: workers block on completion-queue
// events and the CPU is work-conserving.
type Server struct {
	cfg        ServerConfig
	e          *sim.Engine
	tree       *btree.Tree
	latch      *sim.RWLock
	conns      []*conn
	regionMem  *fabric.RegionMemory
	regionVers *fabric.RegionVersions
	publishP   *sim.Proc
	stats      ServerStats
}

type conn struct {
	id         int
	reqReader  *ringbuf.Reader
	respWriter *ringbuf.Writer
	hbMem      *fabric.Memory

	// Reused batch scratch state (one worker per conn, so never shared).
	batchReqs []wire.KVRequest
	batchRes  []kvBatchResult
	benc      wire.BatchEncoder
	encBuf    []byte
}

// Endpoint is the client's connection handle: the R-tree server's, with the
// rings, data QP, heartbeat mailbox and tree geometry filled in.
type Endpoint = server.Endpoint

// NewServer creates a KV server over tree.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Engine == nil || cfg.Host == nil || cfg.Tree == nil {
		return nil, errors.New("kv: Engine, Host and Tree are required")
	}
	if cfg.Host.CPU() == nil {
		return nil, errors.New("kv: server host needs a CPU")
	}
	s := &Server{
		cfg:   cfg,
		e:     cfg.Engine,
		tree:  cfg.Tree,
		latch: sim.NewRWLock(cfg.Engine),
	}
	s.regionMem = cfg.Host.RegisterRegion(cfg.Tree.Region())
	s.regionVers = cfg.Host.RegisterRegionVersions(cfg.Tree.Region())
	if cfg.StagedNodeWrites {
		cfg.Tree.SetPublisher(s.stagedPublish)
	}
	if cfg.HeartbeatInterval > 0 {
		s.e.Spawn("kv-server-heartbeat", s.heartbeatLoop)
	}
	return s, nil
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats { return s.stats }

// Tree returns the served B+-tree.
func (s *Server) Tree() *btree.Tree { return s.tree }

// Connect attaches a client host: request/response rings, a data QP for
// one-sided reads, and a heartbeat mailbox; a worker process serves the
// connection.
func (s *Server) Connect(clientHost *fabric.Host, net *fabric.Network, dataSQDepth int) (*Endpoint, error) {
	id := len(s.conns)
	reqW, reqR, err := buildRing(net, clientHost, s.cfg.Host, ringSize)
	if err != nil {
		return nil, fmt.Errorf("kv: request ring: %w", err)
	}
	respW, respR, err := buildRing(net, s.cfg.Host, clientHost, ringSize)
	if err != nil {
		return nil, fmt.Errorf("kv: response ring: %w", err)
	}
	dataQP, _ := net.ConnectQP(clientHost, s.cfg.Host, dataSQDepth)
	hbMem := clientHost.RegisterMemory(server.HeartbeatMailboxSize)

	c := &conn{id: id, reqReader: reqR, respWriter: respW, hbMem: hbMem}
	s.conns = append(s.conns, c)
	s.e.Spawn(fmt.Sprintf("kv-worker-%d", id), func(p *sim.Proc) {
		s.serve(p, c)
	})
	return &Endpoint{
		ConnID:     id,
		ReqWriter:  reqW,
		RespReader: respR,
		DataQP:     dataQP,
		RegionMem:  s.regionMem,
		RegionVers: s.regionVers,
		HeartbeatM: hbMem,
		RootChunk:  s.tree.RootChunk(),
		ChunkSize:  s.tree.Region().ChunkSize(),
		MaxEntries: s.tree.MaxEntries(),
	}, nil
}

func buildRing(net *fabric.Network, from, to *fabric.Host, size int) (*ringbuf.Writer, *ringbuf.Reader, error) {
	wqp, rqp := net.ConnectQP(from, to, 0)
	return ringbuf.New(wqp, rqp, size)
}

func (s *Server) serve(p *sim.Proc, c *conn) {
	for {
		c.reqReader.CQ().Pop(p)
		for {
			payload, err, ok := c.reqReader.TryRecv()
			if err != nil {
				panic(fmt.Sprintf("kv: ring corrupt on conn %d: %v", c.id, err))
			}
			if !ok {
				break
			}
			if len(payload) > 0 && wire.MsgType(payload[0]) == wire.MsgBatch {
				s.handleBatch(p, c, payload)
				continue
			}
			req, err := wire.DecodeKVRequest(payload)
			if err != nil {
				s.respond(p, c, wire.KVResponse{Status: wire.StatusError, Final: true}, nil)
				continue
			}
			s.handle(p, c, req)
		}
		if err := c.reqReader.ReportHead(p); err != nil {
			panic(fmt.Sprintf("kv: head report failed: %v", err))
		}
	}
}

// charge accounts the operation's CPU service: the B+-tree touches ~height
// nodes per point op plus the serialized result pairs.
func (s *Server) charge(p *sim.Proc, nodes, pairs int) {
	demand := s.cfg.Cost.SearchDemand(nodes, pairs)
	s.cfg.Host.CPU().Run(p, demand)
}

func (s *Server) handle(p *sim.Proc, c *conn, req wire.KVRequest) {
	switch req.Type {
	case wire.MsgKVGet:
		s.stats.Gets++
		s.latch.RLock(p)
		val, err := s.tree.Get(req.Key)
		s.latch.RUnlock()
		s.charge(p, s.tree.Height(), 1)
		switch {
		case errors.Is(err, btree.ErrNotFound):
			s.respond(p, c, wire.KVResponse{ID: req.ID, Status: wire.StatusNotFound, Final: true}, nil)
		case err != nil:
			s.respond(p, c, wire.KVResponse{ID: req.ID, Status: wire.StatusError, Final: true}, nil)
		default:
			s.respond(p, c, wire.KVResponse{ID: req.ID, Status: wire.StatusOK, Final: true},
				[]wire.KVPair{{Key: req.Key, Val: val}})
		}

	case wire.MsgKVPut:
		s.stats.Puts++
		s.latch.Lock(p)
		s.publishFrom(p)
		err := s.tree.Update(req.Key, req.Val)
		if errors.Is(err, btree.ErrNotFound) {
			err = s.tree.Insert(req.Key, req.Val)
		}
		s.publishP = nil
		s.latch.Unlock()
		s.charge(p, s.tree.Height()*2, 0)
		status := wire.StatusOK
		if err != nil {
			status = wire.StatusError
		}
		s.respond(p, c, wire.KVResponse{ID: req.ID, Status: status, Final: true}, nil)

	case wire.MsgKVDelete:
		s.stats.Deletes++
		s.latch.Lock(p)
		s.publishFrom(p)
		err := s.tree.Delete(req.Key)
		s.publishP = nil
		s.latch.Unlock()
		s.charge(p, s.tree.Height()*2, 0)
		status := wire.StatusOK
		switch {
		case errors.Is(err, btree.ErrNotFound):
			status = wire.StatusNotFound
		case err != nil:
			status = wire.StatusError
		}
		s.respond(p, c, wire.KVResponse{ID: req.ID, Status: status, Final: true}, nil)

	case wire.MsgKVRange:
		s.stats.Ranges++
		var pairs []wire.KVPair
		s.latch.RLock(p)
		err := s.tree.Range(req.Key, req.End, func(k, v uint64) bool {
			pairs = append(pairs, wire.KVPair{Key: k, Val: v})
			return true
		})
		s.latch.RUnlock()
		s.stats.Pairs += uint64(len(pairs))
		s.charge(p, s.tree.Height()+len(pairs)/s.tree.MaxEntries(), len(pairs))
		if err != nil {
			s.respond(p, c, wire.KVResponse{ID: req.ID, Status: wire.StatusError, Final: true}, nil)
			return
		}
		s.respond(p, c, wire.KVResponse{ID: req.ID, Status: wire.StatusOK}, pairs)

	default:
		s.respond(p, c, wire.KVResponse{ID: req.ID, Status: wire.StatusError, Final: true}, nil)
	}
}

// publishFrom arms the staged publisher for the current request context.
func (s *Server) publishFrom(p *sim.Proc) {
	if s.cfg.StagedNodeWrites {
		s.publishP = p
	}
}

func (s *Server) stagedPublish(chunkID int, payload []byte) error {
	if s.publishP == nil {
		return s.tree.Region().WriteChunkPrefix(chunkID, payload)
	}
	w, err := s.tree.Region().BeginWrite(chunkID, payload)
	if err != nil {
		return err
	}
	s.publishP.Sleep(s.cfg.Cost.PerNodeWrite)
	w.Finish()
	return nil
}

func (s *Server) respond(p *sim.Proc, c *conn, resp wire.KVResponse, pairs []wire.KVPair) {
	for {
		seg := wire.KVResponse{ID: resp.ID, Status: resp.Status}
		if len(pairs) > maxSegmentPairs {
			seg.Pairs = pairs[:maxSegmentPairs]
			pairs = pairs[maxSegmentPairs:]
		} else {
			seg.Pairs = pairs
			pairs = nil
			seg.Final = true
		}
		if err := c.respWriter.Send(p, seg.Encode(nil), 0, true); err != nil {
			panic(fmt.Sprintf("kv: response send failed: %v", err))
		}
		if seg.Final {
			return
		}
	}
}

// heartbeatLoop mirrors the R-tree server's: utilization plus the root
// version, written into every client's mailbox.
func (s *Server) heartbeatLoop(p *sim.Proc) {
	for {
		p.Sleep(s.cfg.HeartbeatInterval)
		util := s.cfg.Host.CPU().UtilizationWindow()
		if util < 1e-6 {
			util = 1e-6
		}
		var buf [server.HeartbeatMailboxSize]byte
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(util))
		if rootVer, err := s.tree.Region().Version(s.tree.RootChunk()); err == nil {
			binary.LittleEndian.PutUint64(buf[8:], rootVer)
		}
		for _, c := range s.conns {
			qp := c.respWriter.QP()
			if err := qp.Write(p, c.hbMem, 0, buf[:], fabric.WriteOpts{}); err != nil {
				panic(fmt.Sprintf("kv: heartbeat write failed: %v", err))
			}
		}
	}
}
