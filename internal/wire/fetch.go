package wire

import (
	"encoding/binary"
	"fmt"
)

// Remote-result-fetch message types (the RFP-style third access method),
// appended after the read types so existing on-wire values never change.
// A fetch search is executed by the server like a fast-messaging search,
// but instead of streaming the result rectangles back in response frames,
// the server writes them into a mailbox slot of its registered mailbox
// region and answers with a tiny (slot, length, version) descriptor; the
// client then pulls the slot with one-sided reads (merged adjacent RDMA
// Reads on the simulated fabric, SpaceMailbox Reads over TCP) and releases
// the slot with a fetch ack.
const (
	// MsgSearchFetch is a search request asking for mailbox delivery. Its
	// body is a plain Request; the server may still answer inline with
	// MsgResponse segments when the result is small or no slot is free.
	MsgSearchFetch MsgType = iota + MsgReadData + 1
	// MsgFetchDesc is the descriptor reply: where the result landed.
	MsgFetchDesc
	// MsgFetchAck releases a mailbox slot after the client has pulled it.
	// Fire-and-forget: the server sends no reply.
	MsgFetchAck
)

// FetchDesc tells the client where a fetch search's result landed: slot
// (the mailbox slot index; the slot's first chunk is Slot × slot-chunks in
// the mailbox region), length in payload bytes (Count × ItemSize), and the
// slot's write sequence number, which the client checks against the slot
// header after pulling to detect a stale or torn observation.
type FetchDesc struct {
	ID     uint64
	Status uint8
	Slot   uint32
	Bytes  uint32
	Count  uint32
	Seq    uint64
}

// FetchDescSize is the encoded size of a FetchDesc.
const FetchDescSize = 1 + 8 + 1 + 4 + 4 + 4 + 8

// Encode appends the descriptor encoding to buf and returns it.
func (d FetchDesc) Encode(buf []byte) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, FetchDescSize)...)
	b := buf[off:]
	b[0] = byte(MsgFetchDesc)
	binary.LittleEndian.PutUint64(b[1:], d.ID)
	b[9] = d.Status
	binary.LittleEndian.PutUint32(b[10:], d.Slot)
	binary.LittleEndian.PutUint32(b[14:], d.Bytes)
	binary.LittleEndian.PutUint32(b[18:], d.Count)
	binary.LittleEndian.PutUint64(b[22:], d.Seq)
	return buf
}

// DecodeFetchDesc parses a fetch descriptor.
func DecodeFetchDesc(b []byte) (FetchDesc, error) {
	if len(b) < FetchDescSize || MsgType(b[0]) != MsgFetchDesc {
		return FetchDesc{}, fmt.Errorf("%w: fetch-desc", ErrCorrupt)
	}
	return FetchDesc{
		ID:     binary.LittleEndian.Uint64(b[1:]),
		Status: b[9],
		Slot:   binary.LittleEndian.Uint32(b[10:]),
		Bytes:  binary.LittleEndian.Uint32(b[14:]),
		Count:  binary.LittleEndian.Uint32(b[18:]),
		Seq:    binary.LittleEndian.Uint64(b[22:]),
	}, nil
}

// FetchAck releases mailbox slot Slot. Seq echoes the descriptor so the
// server can ignore a stale ack after a slot was force-reclaimed.
type FetchAck struct {
	Slot uint32
	Seq  uint64
}

// FetchAckSize is the encoded size of a FetchAck.
const FetchAckSize = 1 + 4 + 8

// Encode appends the ack encoding to buf and returns it.
func (a FetchAck) Encode(buf []byte) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, FetchAckSize)...)
	b := buf[off:]
	b[0] = byte(MsgFetchAck)
	binary.LittleEndian.PutUint32(b[1:], a.Slot)
	binary.LittleEndian.PutUint64(b[5:], a.Seq)
	return buf
}

// DecodeFetchAck parses a fetch ack.
func DecodeFetchAck(b []byte) (FetchAck, error) {
	if len(b) < FetchAckSize || MsgType(b[0]) != MsgFetchAck {
		return FetchAck{}, fmt.Errorf("%w: fetch-ack", ErrCorrupt)
	}
	return FetchAck{
		Slot: binary.LittleEndian.Uint32(b[1:]),
		Seq:  binary.LittleEndian.Uint64(b[5:]),
	}, nil
}

// EncodeItems appends the packed encoding of items (ItemSize bytes each,
// no header — the descriptor carries the count) and returns the buffer.
// This is the mailbox slot payload format.
func EncodeItems(buf []byte, items []Item) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, len(items)*ItemSize)...)
	b := buf[off:]
	for i := range items {
		p := b[:ItemSize:ItemSize]
		putRect(p, items[i].Rect)
		binary.LittleEndian.PutUint64(p[32:], items[i].Ref)
		b = b[ItemSize:]
	}
	return buf
}

// DecodeItems parses count packed items from b (the mailbox payload
// format written by EncodeItems).
func DecodeItems(b []byte, count int) ([]Item, error) {
	if count < 0 || len(b)/ItemSize < count {
		return nil, fmt.Errorf("%w: packed items truncated (%d of %d)", ErrCorrupt, len(b)/ItemSize, count)
	}
	return appendItems(make([]Item, 0, count), b, count), nil
}
