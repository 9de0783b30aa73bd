package wire

import (
	"encoding/binary"
	"fmt"
)

// Version-read message types (the rpcnet READ_VERSIONS op). The five values
// after MsgChunkData belonged to a retired key-value message format (a key
// operation now travels as an ordinary Request); they stay unused so existing
// on-wire values never change.
const (
	// MsgReadVersions requests only a chunk's per-cacheline version words
	// (region.ReadVersions): the node cache's cheap revalidation read,
	// 512 B instead of a 4 KB chunk for the default geometry.
	MsgReadVersions MsgType = iota + MsgChunkData + 6
	// MsgVersionData carries the raw version vector back to the reader.
	MsgVersionData
)

// ReadVersions requests the version vector of a chunk. Like ReadChunk it
// is answered from the region without taking the tree lock.
type ReadVersions struct {
	ID    uint64 // request tag
	Chunk uint32
}

// ReadVersionsSize is the encoded size of a ReadVersions.
const ReadVersionsSize = 1 + 8 + 4

// Encode appends the read-versions encoding to buf and returns it.
func (r ReadVersions) Encode(buf []byte) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, ReadVersionsSize)...)
	b := buf[off:]
	b[0] = byte(MsgReadVersions)
	binary.LittleEndian.PutUint64(b[1:], r.ID)
	binary.LittleEndian.PutUint32(b[9:], r.Chunk)
	return buf
}

// DecodeReadVersions parses a read-versions request.
func DecodeReadVersions(b []byte) (ReadVersions, error) {
	if len(b) < ReadVersionsSize || MsgType(b[0]) != MsgReadVersions {
		return ReadVersions{}, fmt.Errorf("%w: read-versions", ErrCorrupt)
	}
	return ReadVersions{
		ID:    binary.LittleEndian.Uint64(b[1:]),
		Chunk: binary.LittleEndian.Uint32(b[9:]),
	}, nil
}

// VersionData answers a ReadVersions with the raw version words; the
// client validates cross-line agreement with region.DecodeVersions exactly
// as it would over RDMA.
type VersionData struct {
	ID       uint64
	Status   uint8
	Versions []byte
}

const versionDataHeader = 1 + 8 + 1 + 4

// EncodedSize returns the encoded size of the version-data message.
func (v VersionData) EncodedSize() int { return versionDataHeader + len(v.Versions) }

// Encode appends the version-data encoding to buf and returns it.
func (v VersionData) Encode(buf []byte) []byte {
	buf, body := AppendRawReply(buf, MsgVersionData, v.ID, v.Status, len(v.Versions))
	copy(body, v.Versions)
	return buf
}

// DecodeVersionData parses a version-data message. The Versions slice
// aliases b.
func DecodeVersionData(b []byte) (VersionData, error) {
	id, status, raw, err := DecodeRawReply(b, MsgVersionData)
	return VersionData{ID: id, Status: status, Versions: raw}, err
}
