package kv

import (
	"errors"
	"fmt"
	"time"

	"github.com/catfish-db/catfish/internal/adaptive"
	"github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/nodecache"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// Method identifies how a read executed: the access-method vocabulary the
// R-tree clients use.
type Method = proto.Method

// Read methods.
const (
	MethodFast    = proto.MethodFast
	MethodOffload = proto.MethodOffload
)

// Errors.
var (
	ErrServer   = errors.New("kv: server reported an error")
	ErrNotFound = errors.New("kv: key not found")
)

// ClientConfig configures a KV client.
type ClientConfig struct {
	Engine   *sim.Engine
	Host     *fabric.Host
	Endpoint *Endpoint
	Cost     netmodel.CostModel

	// Adaptive runs Algorithm 1 for reads; otherwise Forced applies.
	Adaptive bool
	Forced   Method
	// T and HeartbeatInv parametrize the switch.
	T            float64
	HeartbeatInv time.Duration

	// NodeCache is the capacity (in nodes) of the client-side cache of
	// internal B+-tree nodes used by the offloaded read path; 0 disables
	// it. Entries are lease-fresh for one HeartbeatInv after validation
	// and revalidated by version-only reads afterwards.
	NodeCache int
}

// ClientStats counts client events.
type ClientStats struct {
	FastReads      uint64
	OffloadReads   uint64
	Puts           uint64
	Deletes        uint64
	TornRetries    uint64
	StaleRestarts  uint64
	HeartbeatsSeen uint64
	// BatchesSent counts GetBatch containers; BatchedOps the gets they
	// carried (each also counted in FastReads).
	BatchesSent uint64
	BatchedOps  uint64

	// Node-cache counters (all zero when the cache is disabled).
	VersionReads      uint64
	CacheHits         uint64
	CacheVerifiedHits uint64
	CacheMisses       uint64
	CacheEvictions    uint64
	CacheBytesSaved   uint64
}

// Client is one key-value client: writes travel by fast messaging (the
// server's lock discipline covers them), reads switch adaptively between
// fast messaging and one-sided B+-tree traversal.
type Client struct {
	cfg ClientConfig
	ep  *Endpoint
	sw  *adaptive.Switch

	// The offloaded read path: the walk over the B+-tree, the port its reads
	// go through, its counters and its node cache.
	walk   *proto.KeyWalk
	reads  client.ReadPort
	walked telemetry.ClientMetrics
	ncache *nodecache.Cache

	reqID  uint64
	encBuf []byte
	benc   wire.BatchEncoder
	stats  ClientStats
}

// NewClient validates the configuration and returns a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Engine == nil || cfg.Host == nil || cfg.Endpoint == nil {
		return nil, errors.New("kv: Engine, Host and Endpoint are required")
	}
	if !cfg.Adaptive && cfg.Forced == 0 {
		cfg.Forced = MethodFast
	}
	c := &Client{cfg: cfg, ep: cfg.Endpoint}
	c.sw = adaptive.New(adaptive.Config{T: cfg.T, Inv: cfg.HeartbeatInv}, cfg.Engine.Rand())
	ep := cfg.Endpoint
	c.reads = client.NewReadPort(cfg.Host, cfg.Cost, ep)
	if cfg.NodeCache > 0 && ep.RegionVers != nil {
		c.ncache = nodecache.New(cfg.NodeCache, cfg.HeartbeatInv, ep.ChunkSize, ep.RegionVers.VersionsSize())
	}
	c.walk = proto.NewKeyWalk(proto.OpsConfig{
		Tree:  proto.Tree{RootChunk: ep.RootChunk, NumChunks: ep.RegionMem.Region().NumChunks(), MaxEntries: ep.MaxEntries},
		Cache: c.ncache,
	}, &c.walked)
	return c, nil
}

// Stats returns a snapshot of the counters.
func (c *Client) Stats() ClientStats {
	out := c.stats
	out.HeartbeatsSeen = c.sw.HeartbeatsSeen
	out.TornRetries = c.walked.TornRetries.Load()
	out.StaleRestarts = c.walked.StaleRestarts.Load()
	out.VersionReads = c.walked.VersionReads.Load()
	ns := c.ncache.Stats()
	out.CacheHits = ns.Hits
	out.CacheVerifiedHits = ns.VerifiedHits
	out.CacheMisses = ns.Misses
	out.CacheEvictions = ns.Evictions
	out.CacheBytesSaved = ns.BytesSaved
	return out
}

func (c *Client) nextID() uint64 {
	c.reqID++
	return c.reqID
}

func (c *Client) decide(p *sim.Proc) Method {
	if !c.cfg.Adaptive {
		return c.cfg.Forced
	}
	hb := c.reads.On(p)
	if c.sw.DecideMethod(p.Now(), hb.Heartbeat, hb.ClearHeartbeat) == adaptive.ChooseOffload {
		return MethodOffload
	}
	return MethodFast
}

// Get returns the value stored under key, adaptively choosing fast
// messaging or offloaded traversal.
func (c *Client) Get(p *sim.Proc, key uint64) (uint64, Method, error) {
	m := c.decide(p)
	if m == MethodOffload {
		c.stats.OffloadReads++
		val, err := c.get(p, key)
		return val, m, err
	}
	c.stats.FastReads++
	resp, err := c.roundTrip(p, wire.KVRequest{Type: wire.MsgKVGet, ID: c.nextID(), Key: key})
	if err != nil {
		return 0, m, err
	}
	switch resp.Status {
	case wire.StatusOK:
		if len(resp.Pairs) != 1 {
			return 0, m, fmt.Errorf("%w: malformed get response", ErrServer)
		}
		return resp.Pairs[0].Val, m, nil
	case wire.StatusNotFound:
		return 0, m, ErrNotFound
	default:
		return 0, m, fmt.Errorf("%w: get status %d", ErrServer, resp.Status)
	}
}

// get reads key's value with one-sided reads: the offloaded walk's scan of
// [key, key].
func (c *Client) get(p *sim.Proc, key uint64) (uint64, error) {
	found, err := proto.ScanKeys(c.walk, c.reads.On(p), key, key)
	if err != nil {
		return 0, err
	}
	if len(found) == 0 {
		return 0, ErrNotFound
	}
	return found[0].Val, nil
}

// Range invokes fn for every key in [from, to] in ascending order,
// adaptively choosing the read path; an offloaded range is delivered once
// its walk completes.
func (c *Client) Range(p *sim.Proc, from, to uint64, fn func(key, val uint64) bool) (Method, error) {
	m := c.decide(p)
	if m == MethodOffload {
		c.stats.OffloadReads++
		pairs, err := proto.ScanKeys(c.walk, c.reads.On(p), from, to)
		for _, kvp := range pairs {
			if !fn(kvp.Key, kvp.Val) {
				break
			}
		}
		return m, err
	}
	c.stats.FastReads++
	resp, err := c.roundTrip(p, wire.KVRequest{Type: wire.MsgKVRange, ID: c.nextID(), Key: from, End: to})
	if err != nil {
		return m, err
	}
	if resp.Status != wire.StatusOK {
		return m, fmt.Errorf("%w: range status %d", ErrServer, resp.Status)
	}
	for _, kvp := range resp.Pairs {
		if !fn(kvp.Key, kvp.Val) {
			break
		}
	}
	return m, nil
}

// Put upserts key -> val (always fast messaging, like R-tree writes).
func (c *Client) Put(p *sim.Proc, key, val uint64) error {
	c.stats.Puts++
	resp, err := c.roundTrip(p, wire.KVRequest{Type: wire.MsgKVPut, ID: c.nextID(), Key: key, Val: val})
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("%w: put status %d", ErrServer, resp.Status)
	}
	return nil
}

// Delete removes key.
func (c *Client) Delete(p *sim.Proc, key uint64) error {
	c.stats.Deletes++
	resp, err := c.roundTrip(p, wire.KVRequest{Type: wire.MsgKVDelete, ID: c.nextID(), Key: key})
	if err != nil {
		return err
	}
	switch resp.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusNotFound:
		return ErrNotFound
	default:
		return fmt.Errorf("%w: delete status %d", ErrServer, resp.Status)
	}
}

// roundTrip performs one fast-messaging exchange, folding segments.
func (c *Client) roundTrip(p *sim.Proc, req wire.KVRequest) (wire.KVResponse, error) {
	c.encBuf = req.Encode(c.encBuf[:0])
	if err := c.ep.ReqWriter.Send(p, c.encBuf, req.ID, true); err != nil {
		return wire.KVResponse{}, err
	}
	var out wire.KVResponse
	for {
		c.ep.RespReader.CQ().Pop(p)
		done, err := c.drain(req.ID, &out)
		if rerr := c.ep.RespReader.ReportHead(p); rerr != nil {
			return out, rerr
		}
		if err != nil {
			return out, err
		}
		if done {
			return out, nil
		}
	}
}

func (c *Client) drain(id uint64, out *wire.KVResponse) (bool, error) {
	done := false
	for {
		payload, err, ok := c.ep.RespReader.TryRecv()
		if err != nil {
			return done, err
		}
		if !ok {
			return done, nil
		}
		resp, err := wire.DecodeKVResponse(payload)
		if err != nil {
			return done, err
		}
		if resp.ID != id {
			continue
		}
		out.ID = resp.ID
		out.Status = resp.Status
		out.Pairs = append(out.Pairs, resp.Pairs...)
		if resp.Final {
			out.Final = true
			done = true
		}
	}
}
