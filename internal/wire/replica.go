// Replication messages: the primary→backup stream that keeps each shard's
// backups warm (DESIGN.md §5.11). A primary ships every applied index
// mutation as a sequenced, epoch-stamped record; a batch of records rides
// one MsgReplicate frame (the TCP analogue of a merged one-sided span
// write), and the backup answers with a MsgReplAck carrying its epoch and
// highest applied sequence so the primary can detect fencing and re-send
// across gaps.
package wire

import (
	"encoding/binary"
	"fmt"

	"github.com/catfish-db/catfish/internal/geo"
)

// Replication message types, appended after the fetch group and the unused
// 24 so existing on-wire values never change.
const (
	// MsgReplicate carries a batch of sequenced op-log records from a
	// shard primary to one of its backups.
	MsgReplicate MsgType = iota + MsgFetchAck + 2
	// MsgReplAck answers a MsgReplicate with the backup's replication
	// epoch and highest contiguously-applied sequence number.
	MsgReplAck
	// MsgPromote rides the Request layout (Ref = new epoch): a router
	// promotes a backup to primary, fencing lower epochs.
	MsgPromote
)

// ReplRecord is one sequenced index mutation in the primary's op-log.
type ReplRecord struct {
	Epoch uint64
	Seq   uint64
	Op    MsgType // MsgInsert or MsgDelete
	Rect  geo.Rect
	Ref   uint64
}

// ReplRecordSize is the encoded size of one op-log record.
const ReplRecordSize = 8 + 8 + 1 + 32 + 8

const replicateHeader = 1 + 8 + 4

// Replicate is a batch of op-log records streamed to a backup.
type Replicate struct {
	ID      uint64 // request tag
	Records []ReplRecord
}

// EncodedSize returns the encoded size of the replicate message.
func (r Replicate) EncodedSize() int { return replicateHeader + len(r.Records)*ReplRecordSize }

// Encode appends the replicate encoding to buf and returns it.
func (r Replicate) Encode(buf []byte) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, r.EncodedSize())...)
	b := buf[off:]
	b[0] = byte(MsgReplicate)
	binary.LittleEndian.PutUint64(b[1:], r.ID)
	binary.LittleEndian.PutUint32(b[9:], uint32(len(r.Records)))
	p := replicateHeader
	for _, rec := range r.Records {
		binary.LittleEndian.PutUint64(b[p:], rec.Epoch)
		binary.LittleEndian.PutUint64(b[p+8:], rec.Seq)
		b[p+16] = byte(rec.Op)
		putRect(b[p+17:], rec.Rect)
		binary.LittleEndian.PutUint64(b[p+49:], rec.Ref)
		p += ReplRecordSize
	}
	return buf
}

// MaxReplRecords bounds a decoded record batch, rejecting corrupt length
// words before they drive a huge allocation.
const MaxReplRecords = 1 << 16

// DecodeReplicate parses a replicate message.
func DecodeReplicate(b []byte) (Replicate, error) {
	if len(b) < replicateHeader || MsgType(b[0]) != MsgReplicate {
		return Replicate{}, fmt.Errorf("%w: replicate", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(b[9:]))
	if n > MaxReplRecords || len(b) < replicateHeader+n*ReplRecordSize {
		return Replicate{}, fmt.Errorf("%w: replicate truncated", ErrCorrupt)
	}
	r := Replicate{ID: binary.LittleEndian.Uint64(b[1:])}
	p := replicateHeader
	for i := 0; i < n; i++ {
		r.Records = append(r.Records, ReplRecord{
			Epoch: binary.LittleEndian.Uint64(b[p:]),
			Seq:   binary.LittleEndian.Uint64(b[p+8:]),
			Op:    MsgType(b[p+16]),
			Rect:  getRect(b[p+17:]),
			Ref:   binary.LittleEndian.Uint64(b[p+49:]),
		})
		p += ReplRecordSize
	}
	return r, nil
}

// ReplAck acknowledges a record batch. Status is StatusOK when every record
// applied, StatusFenced when the sender's epoch is stale (Epoch carries the
// backup's higher epoch), or StatusError on a sequence gap — in which case
// AppliedSeq tells the primary where to resume.
type ReplAck struct {
	ID         uint64
	Status     uint8
	Epoch      uint64
	AppliedSeq uint64
}

// ReplAckSize is the encoded size of a ReplAck.
const ReplAckSize = 1 + 8 + 1 + 8 + 8

// Encode appends the ack encoding to buf and returns it.
func (a ReplAck) Encode(buf []byte) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, ReplAckSize)...)
	b := buf[off:]
	b[0] = byte(MsgReplAck)
	binary.LittleEndian.PutUint64(b[1:], a.ID)
	b[9] = a.Status
	binary.LittleEndian.PutUint64(b[10:], a.Epoch)
	binary.LittleEndian.PutUint64(b[18:], a.AppliedSeq)
	return buf
}

// DecodeReplAck parses a replication ack.
func DecodeReplAck(b []byte) (ReplAck, error) {
	if len(b) < ReplAckSize || MsgType(b[0]) != MsgReplAck {
		return ReplAck{}, fmt.Errorf("%w: repl-ack", ErrCorrupt)
	}
	return ReplAck{
		ID:         binary.LittleEndian.Uint64(b[1:]),
		Status:     b[9],
		Epoch:      binary.LittleEndian.Uint64(b[10:]),
		AppliedSeq: binary.LittleEndian.Uint64(b[18:]),
	}, nil
}
