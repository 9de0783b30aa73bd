package wire

import (
	"encoding/binary"
	"fmt"
)

// One-sided read message types (the rpcnet READ op), appended after the
// shard-map types so existing on-wire values never change. A Read is the
// TCP stand-in for one RDMA Read of (registered memory, offset, length):
// the server answers it from the memory it names without taking the tree
// latch, and the client validates what comes back per chunk, exactly as it
// would the completions of a one-sided read.
const (
	// MsgRead requests Count consecutive units of one Space.
	MsgRead MsgType = iota + MsgShardMapData + 1
	// MsgReadData carries the units back (AppendRawReply's layout).
	MsgReadData
)

// Space names the registered memory a Read reads.
type Space uint8

// The registered memories a server exposes.
const (
	// SpaceChunks is the tree region's chunk images (region.ReadChunkRaw).
	SpaceChunks Space = iota
	// SpaceVersions is the tree region's per-cacheline version words
	// (region.ReadVersions): the node cache's cheap revalidation read,
	// 512 B instead of a 4 KB chunk for the default geometry.
	SpaceVersions
	// SpaceMailbox is the fetch mailbox region's chunk images: the pull
	// of a fetch search's result.
	SpaceMailbox
	// NumSpaces counts the spaces.
	NumSpaces
)

// Read requests units [Chunk, Chunk+Count) of Space: chunk images, or the
// version words of those chunks. Each chunk is snapshotted independently,
// so a torn chunk taints only itself.
type Read struct {
	ID    uint64 // request tag
	Space Space
	Chunk uint32 // first chunk
	Count uint32
}

// ReadSize is the encoded size of a Read.
const ReadSize = 1 + 8 + 1 + 4 + 4

// Encode appends the read encoding to buf and returns it.
func (r Read) Encode(buf []byte) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, ReadSize)...)
	b := buf[off:]
	b[0] = byte(MsgRead)
	binary.LittleEndian.PutUint64(b[1:], r.ID)
	b[9] = byte(r.Space)
	binary.LittleEndian.PutUint32(b[10:], r.Chunk)
	binary.LittleEndian.PutUint32(b[14:], r.Count)
	return buf
}

// DecodeRead parses a read request. An unknown Space decodes; the server
// refuses it.
func DecodeRead(b []byte) (Read, error) {
	if len(b) < ReadSize || MsgType(b[0]) != MsgRead {
		return Read{}, fmt.Errorf("%w: read", ErrCorrupt)
	}
	return Read{
		ID:    binary.LittleEndian.Uint64(b[1:]),
		Space: Space(b[9]),
		Chunk: binary.LittleEndian.Uint32(b[10:]),
		Count: binary.LittleEndian.Uint32(b[14:]),
	}, nil
}

// readDataHeader is a READ_DATA message's header: type, id, status, body
// length.
const readDataHeader = 1 + 8 + 1 + 4

// AppendRawReply appends a READ_DATA message with an n-byte zeroed body and
// returns the extended buffer and the body, so a server can have the region
// fill the reply in place instead of staging the bytes and copying them in.
// A refusal is a non-OK status with n = 0.
func AppendRawReply(buf []byte, id uint64, status uint8, n int) (msg, body []byte) {
	off := len(buf)
	buf = append(buf, make([]byte, readDataHeader+n)...)
	b := buf[off:]
	b[0] = byte(MsgReadData)
	binary.LittleEndian.PutUint64(b[1:], id)
	b[9] = status
	binary.LittleEndian.PutUint32(b[10:], uint32(n))
	return buf, b[readDataHeader:]
}

// DecodeRawReply parses a READ_DATA message. The body aliases b.
func DecodeRawReply(b []byte) (id uint64, status uint8, body []byte, err error) {
	if len(b) < readDataHeader || MsgType(b[0]) != MsgReadData {
		return 0, 0, nil, fmt.Errorf("%w: not a read reply", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(b[10:]))
	if len(b) < readDataHeader+n {
		return 0, 0, nil, fmt.Errorf("%w: read reply truncated", ErrCorrupt)
	}
	return binary.LittleEndian.Uint64(b[1:]), b[9], b[readDataHeader : readDataHeader+n], nil
}
