// Package wire defines the message formats Catfish exchanges over ring
// buffers and TCP connections: R-tree requests, segmented responses
// (the paper's CONT/END scheme for variable-sized results), and the server
// CPU-utilization heartbeats that drive the adaptive algorithm.
//
// All encodings are little-endian and fixed-layout; they are the payloads
// that ring-buffer frames (internal/ringbuf) and TCP messages carry.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/catfish-db/catfish/internal/geo"
)

// MsgType discriminates wire messages.
type MsgType uint8

// Message types. Each later group is appended after the one before, so no
// value ever changes; 7–15 and 24 belonged to retired messages and stay
// unused rather than be reused (TestMsgTypeValues pins them all).
const (
	MsgSearch MsgType = iota + 1
	MsgInsert
	MsgDelete
	MsgResponse
	MsgHeartbeat
	// MsgHello is the rpcnet connection bootstrap (root chunk, geometry).
	MsgHello
)

// Response status codes.
const (
	StatusOK uint8 = iota
	StatusNotFound
	StatusError
	// StatusUnavailable means the server is up but refusing service (it
	// has been killed or is draining); routers fail over on it.
	StatusUnavailable
	// StatusFenced means the operation carried a replication epoch below
	// the server's current one — a zombie primary's write, rejected.
	StatusFenced
	// StatusNotPrimary means a client write reached a backup that has not
	// been promoted; routers redirect to the shard's primary.
	StatusNotPrimary
	// StatusOverloaded means the server's admission controller shed the
	// request (utilization past the configured threshold, or the request's
	// deadline expired while queued). The operation was NOT executed;
	// clients surface it distinctly from transport errors and routers
	// retry against replicas with backoff.
	StatusOverloaded
)

// ErrCorrupt is returned when a message fails to decode.
var ErrCorrupt = errors.New("wire: corrupt message")

// Request is an R-tree operation request. Ref is meaningful for insert,
// delete, and move; for MsgKNN/MsgKNNFetch it carries k and Rect degenerates
// to the query point. Rect2 is the destination rectangle of a MsgMove and is
// encoded only for that type, so every other request keeps its legacy
// layout. DeadlineUS, when nonzero, is the client's remaining latency
// budget in microseconds (relative, so no clock synchronization is needed);
// an admission-controlled server sheds the request if it cannot start
// executing within that budget.
type Request struct {
	Type       MsgType
	ID         uint64
	Rect       geo.Rect
	Ref        uint64
	Rect2      geo.Rect
	DeadlineUS uint32
}

// RequestSize is the encoded size of a Request without a deadline word.
const RequestSize = 1 + 8 + 32 + 8

// Encode appends the request encoding to buf and returns it.
func (r Request) Encode(buf []byte) []byte {
	off := len(buf)
	size := RequestSize
	if r.Type == MsgMove {
		size = MoveRequestSize
	}
	if r.DeadlineUS != 0 {
		size += 4
	}
	buf = append(buf, make([]byte, size)...)
	b := buf[off:]
	b[0] = byte(r.Type)
	binary.LittleEndian.PutUint64(b[1:], r.ID)
	putRect(b[9:], r.Rect)
	binary.LittleEndian.PutUint64(b[41:], r.Ref)
	p := RequestSize
	if r.Type == MsgMove {
		putRect(b[49:], r.Rect2)
		p = MoveRequestSize
	}
	if r.DeadlineUS != 0 {
		binary.LittleEndian.PutUint32(b[p:], r.DeadlineUS)
	}
	return buf
}

// DecodeRequest parses a request, tolerating both the legacy layout and
// the widened layout with a trailing deadline word.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) < RequestSize {
		return Request{}, fmt.Errorf("%w: request %d bytes", ErrCorrupt, len(b))
	}
	typ := MsgType(b[0])
	switch typ {
	case MsgSearch, MsgInsert, MsgDelete, MsgSearchFetch, MsgPromote, MsgMove, MsgKNN,
		MsgKNNFetch:
	default:
		return Request{}, fmt.Errorf("%w: request type %d", ErrCorrupt, typ)
	}
	r := Request{
		Type: typ,
		ID:   binary.LittleEndian.Uint64(b[1:]),
		Rect: getRect(b[9:]),
		Ref:  binary.LittleEndian.Uint64(b[41:]),
	}
	deadlineOff := RequestSize
	if typ == MsgMove {
		if len(b) < MoveRequestSize {
			return Request{}, fmt.Errorf("%w: move request %d bytes", ErrCorrupt, len(b))
		}
		r.Rect2 = getRect(b[49:])
		deadlineOff = MoveRequestSize
	}
	if len(b) >= deadlineOff+4 {
		r.DeadlineUS = binary.LittleEndian.Uint32(b[deadlineOff:])
	}
	return r, nil
}

// Item is one result rectangle.
type Item struct {
	Rect geo.Rect
	Ref  uint64
}

// ItemSize is the encoded size of one result item.
const ItemSize = 40

// Response carries (a segment of) an operation's results. The paper flags
// segments of a large response with CONT and terminates with END; Final
// plays the END role here.
type Response struct {
	ID     uint64
	Final  bool
	Status uint8
	Items  []Item
}

const respHeader = 1 + 8 + 1 + 1 + 4

// ResponseHeaderSize is the encoded size of a response segment's fixed
// header; its packed items follow.
const ResponseHeaderSize = respHeader

// Encode appends the response encoding to buf and returns it.
func (r Response) Encode(buf []byte) []byte {
	buf = AppendResponseHeader(buf, r.ID, r.Final, r.Status, len(r.Items))
	return EncodeItems(buf, r.Items)
}

// AppendResponseHeader appends the fixed header of a response segment that
// carries count items. Followed by count AppendItem calls (or count packed
// items copied in) it yields exactly what Response.Encode produces, so a
// server can stream a result into its wire form without materialising a
// []Item first.
func AppendResponseHeader(buf []byte, id uint64, final bool, status uint8, count int) []byte {
	var h [respHeader]byte
	h[0] = byte(MsgResponse)
	binary.LittleEndian.PutUint64(h[1:], id)
	if final {
		h[9] = 1
	}
	h[10] = status
	binary.LittleEndian.PutUint32(h[11:], uint32(count))
	return append(buf, h[:]...)
}

// AppendItem appends one packed result item (ItemSize bytes) — the unit of
// both a response segment's body and a mailbox slot's payload.
func AppendItem(buf []byte, r geo.Rect, ref uint64) []byte {
	n := len(buf)
	if cap(buf)-n < ItemSize {
		buf = append(buf, make([]byte, ItemSize)...)
	}
	buf = buf[:n+ItemSize]
	b := buf[n : n+ItemSize : n+ItemSize]
	putRect(b, r)
	binary.LittleEndian.PutUint64(b[32:], ref)
	return buf
}

// DecodeResponse parses a response into a freshly allocated item slice.
func DecodeResponse(b []byte) (Response, error) {
	return DecodeResponseAppend(b, nil)
}

// DecodeResponseAppend parses a response segment, appending its items to
// dst (which may be nil): the returned Response's Items is dst extended by
// the segment, grown to exactly the needed capacity when dst is too small.
// Folding a multi-segment response through it decodes every item once,
// straight into the result slice. On error dst is returned unextended.
func DecodeResponseAppend(b []byte, dst []Item) (Response, error) {
	count, err := responseCount(b)
	if err != nil {
		return Response{Items: dst}, err
	}
	return Response{
		ID:     binary.LittleEndian.Uint64(b[1:]),
		Final:  b[9] == 1,
		Status: b[10],
		Items:  appendItems(dst, b[respHeader:], count),
	}, nil
}

// PeekResponse validates a response segment and returns its header fields
// (Items nil) and item count without decoding any item.
func PeekResponse(b []byte) (Response, int, error) {
	count, err := responseCount(b)
	if err != nil {
		return Response{}, 0, err
	}
	return Response{
		ID:     binary.LittleEndian.Uint64(b[1:]),
		Final:  b[9] == 1,
		Status: b[10],
	}, count, nil
}

// responseCount checks that b is a response segment holding every item its
// header announces, and returns how many that is.
func responseCount(b []byte) (int, error) {
	if len(b) < respHeader || MsgType(b[0]) != MsgResponse {
		return 0, fmt.Errorf("%w: response header", ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint32(b[11:]))
	if (len(b)-respHeader)/ItemSize < count {
		return 0, fmt.Errorf("%w: response truncated (%d items)", ErrCorrupt, count)
	}
	return count, nil
}

// appendItems decodes count packed items from b (which must hold them) onto
// dst, growing dst at most once and to exactly the capacity needed. Each
// item's fields are stored straight into its slot: no Item is built and
// copied, and one bounds check per item covers its five loads.
func appendItems(dst []Item, b []byte, count int) []Item {
	if count == 0 {
		return dst
	}
	n := len(dst)
	if cap(dst)-n < count {
		grown := make([]Item, n, n+count)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:n+count]
	items := dst[n:]
	b = b[:count*ItemSize]
	for i := range items {
		p := (*[ItemSize]byte)(b[i*ItemSize:])
		it := &items[i]
		it.Rect.MinX = math.Float64frombits(binary.LittleEndian.Uint64(p[0:8]))
		it.Rect.MaxX = math.Float64frombits(binary.LittleEndian.Uint64(p[8:16]))
		it.Rect.MinY = math.Float64frombits(binary.LittleEndian.Uint64(p[16:24]))
		it.Rect.MaxY = math.Float64frombits(binary.LittleEndian.Uint64(p[24:32]))
		it.Ref = binary.LittleEndian.Uint64(p[32:40])
	}
	return dst
}

// PeekID returns the type and request id of a reply frame — response,
// read data, fetch descriptor, shard-map data — from its
// fixed [type u8][id u64] header, without decoding the body. A
// demultiplexer routes on it; the frame's consumer does the one full decode.
func PeekID(b []byte) (MsgType, uint64, error) {
	if len(b) < 1+8 {
		return 0, 0, fmt.Errorf("%w: reply header", ErrCorrupt)
	}
	t := MsgType(b[0])
	switch t {
	case MsgResponse, MsgReadData, MsgFetchDesc, MsgShardMapData:
		return t, binary.LittleEndian.Uint64(b[1:]), nil
	}
	return 0, 0, fmt.Errorf("%w: type %d is not a reply", ErrCorrupt, t)
}

// Heartbeat carries the server's windowed CPU utilization (0..1) and the
// root chunk's region version, sent every heartbeat interval to all
// connected clients (paper §IV-A). The root version plays the same role
// as the second word of the simulated heartbeat mailbox: it lets clients
// invalidate cached tree nodes within one heartbeat of a root rewrite.
type Heartbeat struct {
	Util    float64
	RootVer uint64
	TXUtil  float64 // windowed send-engine (TX NIC) utilization, 0..1
	// Replication words: the server's per-shard replication epoch and
	// highest applied op-log sequence — routers pick the most-caught-up
	// backup during failover — and the shard-map version the server
	// currently serves, so routers detect a live reshard mid-run without
	// polling MsgShardMap.
	Epoch      uint64
	AppliedSeq uint64
	MapVersion uint64
}

// HeartbeatSize is the encoded size of a Heartbeat.
const HeartbeatSize = 1 + 8 + 8 + 8 + 8 + 8 + 8

// Encode appends the heartbeat encoding to buf and returns it.
func (h Heartbeat) Encode(buf []byte) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, HeartbeatSize)...)
	b := buf[off:]
	b[0] = byte(MsgHeartbeat)
	binary.LittleEndian.PutUint64(b[1:], math.Float64bits(h.Util))
	binary.LittleEndian.PutUint64(b[9:], h.RootVer)
	binary.LittleEndian.PutUint64(b[17:], math.Float64bits(h.TXUtil))
	binary.LittleEndian.PutUint64(b[25:], h.Epoch)
	binary.LittleEndian.PutUint64(b[33:], h.AppliedSeq)
	binary.LittleEndian.PutUint64(b[41:], h.MapVersion)
	return buf
}

// DecodeHeartbeat parses a heartbeat.
func DecodeHeartbeat(b []byte) (Heartbeat, error) {
	if len(b) < HeartbeatSize || MsgType(b[0]) != MsgHeartbeat {
		return Heartbeat{}, fmt.Errorf("%w: heartbeat", ErrCorrupt)
	}
	return Heartbeat{
		Util:       math.Float64frombits(binary.LittleEndian.Uint64(b[1:])),
		RootVer:    binary.LittleEndian.Uint64(b[9:]),
		TXUtil:     math.Float64frombits(binary.LittleEndian.Uint64(b[17:])),
		Epoch:      binary.LittleEndian.Uint64(b[25:]),
		AppliedSeq: binary.LittleEndian.Uint64(b[33:]),
		MapVersion: binary.LittleEndian.Uint64(b[41:]),
	}, nil
}

// PeekType returns the type of an encoded message.
func PeekType(b []byte) (MsgType, error) {
	if len(b) == 0 {
		return 0, ErrCorrupt
	}
	t := MsgType(b[0])
	if t < MsgSearch || t > MsgKNNFetch {
		return 0, fmt.Errorf("%w: type %d", ErrCorrupt, t)
	}
	return t, nil
}

// Hello is the rpcnet connection bootstrap: everything the paper's client
// learns at connection initialization (the registered region's address and
// geometry, here expressed as chunk coordinates).
type Hello struct {
	RootChunk   uint32
	ChunkSize   uint32
	MaxEntries  uint32
	NumChunks   uint32
	HeartbeatMs uint32
	ServerEpoch uint64 // lets clients detect server restarts
	ShardIndex  uint32 // this server's shard in the deployment
	ShardCount  uint32 // total shards (0 or 1 = unsharded)
	MapVersion  uint64 // shard-map version; routers verify agreement
	// Fetch mailbox geometry: the mailbox region has FetchSlots slots of
	// FetchSlotChunks chunks each (chunk size = ChunkSize). Zero slots
	// means the server does not support result fetching.
	FetchSlots      uint32
	FetchSlotChunks uint32
	// ReplicaEpoch is the server's replication epoch at connection time. A
	// router cross-checks
	// it against heartbeats so a fenced zombie is recognizable from the
	// hello alone.
	ReplicaEpoch uint64
	// Index is the index the server serves, and so the walk an offloading
	// client must read its chunks with.
	Index IndexKind
}

// IndexKind names the index a server serves (DESIGN.md §5.16). The zero
// value is the R-tree.
type IndexKind uint8

// Index kinds.
const (
	IndexRTree IndexKind = iota
	// IndexBTree is the B+-tree key-value store (internal/kv): a key
	// interval rides a request's Rect.MinX/MaxX as float64 bit patterns.
	IndexBTree
)

// HelloSize is the encoded size of a Hello.
const HelloSize = 1 + 4*5 + 8 + 4 + 4 + 8 + 4 + 4 + 8 + 1

// Encode appends the hello encoding to buf and returns it.
func (h Hello) Encode(buf []byte) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, HelloSize)...)
	b := buf[off:]
	b[0] = byte(MsgHello)
	binary.LittleEndian.PutUint32(b[1:], h.RootChunk)
	binary.LittleEndian.PutUint32(b[5:], h.ChunkSize)
	binary.LittleEndian.PutUint32(b[9:], h.MaxEntries)
	binary.LittleEndian.PutUint32(b[13:], h.NumChunks)
	binary.LittleEndian.PutUint32(b[17:], h.HeartbeatMs)
	binary.LittleEndian.PutUint64(b[21:], h.ServerEpoch)
	binary.LittleEndian.PutUint32(b[29:], h.ShardIndex)
	binary.LittleEndian.PutUint32(b[33:], h.ShardCount)
	binary.LittleEndian.PutUint64(b[37:], h.MapVersion)
	binary.LittleEndian.PutUint32(b[45:], h.FetchSlots)
	binary.LittleEndian.PutUint32(b[49:], h.FetchSlotChunks)
	binary.LittleEndian.PutUint64(b[53:], h.ReplicaEpoch)
	b[61] = byte(h.Index)
	return buf
}

// DecodeHello parses a hello.
func DecodeHello(b []byte) (Hello, error) {
	if len(b) < HelloSize || MsgType(b[0]) != MsgHello {
		return Hello{}, fmt.Errorf("%w: hello", ErrCorrupt)
	}
	return Hello{
		RootChunk:       binary.LittleEndian.Uint32(b[1:]),
		ChunkSize:       binary.LittleEndian.Uint32(b[5:]),
		MaxEntries:      binary.LittleEndian.Uint32(b[9:]),
		NumChunks:       binary.LittleEndian.Uint32(b[13:]),
		HeartbeatMs:     binary.LittleEndian.Uint32(b[17:]),
		ServerEpoch:     binary.LittleEndian.Uint64(b[21:]),
		ShardIndex:      binary.LittleEndian.Uint32(b[29:]),
		ShardCount:      binary.LittleEndian.Uint32(b[33:]),
		MapVersion:      binary.LittleEndian.Uint64(b[37:]),
		FetchSlots:      binary.LittleEndian.Uint32(b[45:]),
		FetchSlotChunks: binary.LittleEndian.Uint32(b[49:]),
		ReplicaEpoch:    binary.LittleEndian.Uint64(b[53:]),
		Index:           IndexKind(b[61]),
	}, nil
}

func putRect(b []byte, r geo.Rect) {
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(r.MinX))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.MaxX))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.MinY))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(r.MaxY))
}

func getRect(b []byte) geo.Rect {
	return geo.Rect{
		MinX: math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
		MaxX: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		MinY: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		MaxY: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
	}
}
