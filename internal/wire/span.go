package wire

import (
	"encoding/binary"
	"fmt"
)

// Span-read message types (the rpcnet READ_SPAN op), appended after the
// shard-map types so existing on-wire values never change. A span read is
// the TCP analogue of a merged adjacent RDMA Read: one round trip fetches
// Count physically-consecutive chunks starting at Chunk, which the client
// demuxes — and validates — per chunk, exactly as it would the individual
// completions of a coalesced one-sided read.
const (
	// MsgReadSpan requests Count consecutive raw chunks in one round trip.
	MsgReadSpan MsgType = iota + MsgShardMapData + 1
	// MsgSpanData carries the concatenated raw chunk images back.
	MsgSpanData
)

// ReadSpan requests chunks [Chunk, Chunk+Count). Like ReadChunk it is
// answered from the region without taking the tree lock; each chunk is
// snapshotted independently, so a torn chunk taints only itself.
type ReadSpan struct {
	ID    uint64 // request tag
	Chunk uint32 // first chunk of the span
	Count uint32
}

// ReadSpanSize is the encoded size of a ReadSpan.
const ReadSpanSize = 1 + 8 + 4 + 4

// Encode appends the read-span encoding to buf and returns it.
func (r ReadSpan) Encode(buf []byte) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, ReadSpanSize)...)
	b := buf[off:]
	b[0] = byte(MsgReadSpan)
	binary.LittleEndian.PutUint64(b[1:], r.ID)
	binary.LittleEndian.PutUint32(b[9:], r.Chunk)
	binary.LittleEndian.PutUint32(b[13:], r.Count)
	return buf
}

// DecodeReadSpan parses a read-span request.
func DecodeReadSpan(b []byte) (ReadSpan, error) {
	if len(b) < ReadSpanSize || MsgType(b[0]) != MsgReadSpan {
		return ReadSpan{}, fmt.Errorf("%w: read-span", ErrCorrupt)
	}
	return ReadSpan{
		ID:    binary.LittleEndian.Uint64(b[1:]),
		Chunk: binary.LittleEndian.Uint32(b[9:]),
		Count: binary.LittleEndian.Uint32(b[13:]),
	}, nil
}

// SpanData answers a ReadSpan with Count consecutive raw chunk images,
// concatenated in chunk order. The client slices and validates each chunk
// with region.DecodeChunk exactly as it would a single-chunk read.
type SpanData struct {
	ID     uint64
	Status uint8
	Raw    []byte // Count × chunkSize bytes
}

const spanDataHeader = 1 + 8 + 1 + 4

// EncodedSize returns the encoded size of the span-data message.
func (s SpanData) EncodedSize() int { return spanDataHeader + len(s.Raw) }

// Encode appends the span-data encoding to buf and returns it.
func (s SpanData) Encode(buf []byte) []byte {
	buf, body := AppendRawReply(buf, MsgSpanData, s.ID, s.Status, len(s.Raw))
	copy(body, s.Raw)
	return buf
}

// DecodeSpanData parses a span-data message. The Raw slice aliases b.
func DecodeSpanData(b []byte) (SpanData, error) {
	id, status, raw, err := DecodeRawReply(b, MsgSpanData)
	return SpanData{ID: id, Status: status, Raw: raw}, err
}
