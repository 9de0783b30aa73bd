// Shard replication and failover over real TCP (DESIGN.md §5.11).
//
// Replication runs in the transport-neutral core (replica.Primary ships,
// proto.Serve.ApplyRecords applies); this file only carries its record
// batches and acks over a socket. Live resharding is elastic.go.
package rpcnet

import (
	"net"
	"sync"
	"time"

	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/wire"
)

// ReplicaConfig arms shard replication on a server.
type ReplicaConfig struct {
	// Primary makes this server accept client writes and stream them to
	// Backups; false starts it as a backup that rejects client writes with
	// StatusNotPrimary until promoted.
	Primary bool
	// Backups lists the addresses this server replicates to while it is
	// primary, from the start or once promoted. Each is dialed on its first
	// exchange.
	Backups []string
	// Epoch is the shard's starting replication epoch (0 selects 1). All
	// replicas of a shard must start at the same epoch.
	Epoch uint64
}

// ackTimeout bounds one replication exchange; a backup that misses it is
// dropped from the stream.
const ackTimeout = 2 * time.Second

// sockPeer is one backup as a primary reaches it over TCP: a dedicated
// connection, dialed on the first exchange, on which the backup's hello and
// heartbeat pushes are skipped while an ack is awaited. The replication core
// (replica.Primary) does everything else.
type sockPeer struct {
	addr   string
	mu     sync.Mutex // held for a whole exchange, so Close waits one out
	conn   net.Conn
	closed bool
	buf    []byte
}

// Exchange ships one record batch and reads until the backup's ack.
func (p *sockPeer) Exchange(recs []replica.Record) (wire.ReplAck, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		if p.closed {
			return wire.ReplAck{}, net.ErrClosed
		}
		conn, err := net.Dial("tcp", p.addr)
		if err != nil {
			return wire.ReplAck{}, err
		}
		p.conn = conn
	}
	if err := p.conn.SetDeadline(time.Now().Add(ackTimeout)); err != nil {
		return wire.ReplAck{}, err
	}
	if err := writeFrame(p.conn, wire.Replicate{Records: recs}.Encode(nil)); err != nil {
		return wire.ReplAck{}, err
	}
	for {
		var err error
		if p.buf, err = readFrame(p.conn, p.buf); err != nil {
			return wire.ReplAck{}, err
		}
		if typ, err := wire.PeekType(p.buf); err != nil || typ == wire.MsgReplAck {
			return wire.DecodeReplAck(p.buf)
		}
	}
}

// Close tears the connection down; a later exchange fails.
func (p *sockPeer) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	if p.conn == nil {
		return nil
	}
	return p.conn.Close()
}

// handleReplicate is the socket side of a backup: it decodes a record batch,
// applies it through the server core under the exclusive latch, and answers
// with the ack the core returns.
func (s *Server) handleReplicate(sc *srvConn, frame []byte) error {
	msg, err := wire.DecodeReplicate(frame)
	if err != nil {
		return err
	}
	s.latch.Lock()
	ack, _, _ := s.core.ApplyRecords(exec{s: s, sc: sc}, msg.Records)
	s.latch.Unlock()
	ack.ID = msg.ID
	return sc.send(ack.Encode(nil))
}
