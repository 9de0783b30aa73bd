package region

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Mailbox carves a registered region into fixed-size result slots for the
// RFP-style fetch access method (PAPERS.md, arXiv:1512.07805): the server
// executes a search, writes the result items into a granted slot, and
// replies with a tiny (slot, length, version) descriptor; the client pulls
// the slot's chunks with one-sided reads and releases the slot with an ack.
//
// Each slot is a run of physically consecutive chunks, so a pull is a
// single merged span read (fabric.ReadBatch/MergeSpan on the simulated
// fabric, MsgReadMailbox over TCP) against the same seqlocked chunk format
// as the tree itself. The first chunk's payload begins with a
// MailboxHeaderSize-byte slot header:
//
//	[0:8)  seq   — the slot's write sequence number (descriptor "version")
//	[8:12) len   — payload length in bytes
//	[12:16)      — reserved
//
// followed by the payload, which continues across the payloads of the
// remaining chunks of the slot. Per-chunk seqlock versions protect each
// chunk against torn reads; the header seq protects the *slot* against a
// stale read (a pull that raced a reuse of the slot observes a different
// seq than its descriptor promised and retries).
//
// Grant/Reclaim are safe for concurrent use. Writes to distinct slots may
// proceed concurrently (distinct chunks); a slot is written only between
// Grant and Reclaim, so no two writers ever share a chunk.
type Mailbox struct {
	reg        *Region
	slots      int
	slotChunks int
	base       int // first chunk id of slot 0; slot i starts at base+i*slotChunks

	mu      sync.Mutex
	free    []int    // free slot indices (LIFO)
	seq     []uint64 // current write seq per slot, 0 = never written
	nextSeq uint64

	granted   uint64 // total successful grants
	exhausted uint64 // grants denied for want of a free slot
}

// MailboxHeaderSize is the size of the slot header preceding the payload
// in the first chunk of each slot.
const MailboxHeaderSize = 16

// ErrStaleSlot reports that a pulled slot's header does not match the
// descriptor: the slot was reused (or not yet visibly written) when read.
var ErrStaleSlot = errors.New("region: mailbox slot stale")

// SlotRef locates a written result: the descriptor the server returns to
// the client in place of the result itself.
type SlotRef struct {
	Slot   int    // slot index
	Chunks int    // chunks the client must read (header + payload)
	Bytes  int    // payload length
	Seq    uint64 // slot write sequence; client verifies after the pull
}

// NewMailbox allocates slots×slotChunks chunks from reg and divides them
// into slots of slotChunks physically consecutive chunks each. reg must be
// freshly created for the mailbox (no prior allocations), so that slot 0
// starts at chunk 0 and clients can locate slot i at chunk i×slotChunks
// from the descriptor alone.
func NewMailbox(reg *Region, slots, slotChunks int) (*Mailbox, error) {
	if slots <= 0 || slotChunks <= 0 {
		return nil, fmt.Errorf("region: mailbox needs positive geometry (slots=%d slotChunks=%d)", slots, slotChunks)
	}
	if reg.Allocated() != 0 {
		return nil, fmt.Errorf("region: mailbox region must be fresh (has %d allocated chunks)", reg.Allocated())
	}
	need := slots * slotChunks
	if need > reg.NumChunks() {
		return nil, fmt.Errorf("region: mailbox needs %d chunks, region has %d", need, reg.NumChunks())
	}
	reg.SortFreeList()
	base := -1
	for i := 0; i < need; i++ {
		id, err := reg.Alloc()
		if err != nil {
			return nil, fmt.Errorf("region: mailbox alloc: %w", err)
		}
		if base < 0 {
			base = id
		} else if id != base+i {
			return nil, fmt.Errorf("region: mailbox chunks not contiguous (%d after %d)", id, base+i-1)
		}
	}
	if base != 0 {
		return nil, fmt.Errorf("region: mailbox base chunk %d, want 0", base)
	}
	m := &Mailbox{
		reg:        reg,
		slots:      slots,
		slotChunks: slotChunks,
		base:       base,
		free:       make([]int, 0, slots),
		seq:        make([]uint64, slots),
	}
	for i := slots - 1; i >= 0; i-- {
		m.free = append(m.free, i)
	}
	return m, nil
}

// Slots returns the number of slots.
func (m *Mailbox) Slots() int { return m.slots }

// SlotChunks returns the chunks per slot.
func (m *Mailbox) SlotChunks() int { return m.slotChunks }

// Capacity returns the payload bytes one slot can hold.
func (m *Mailbox) Capacity() int {
	return m.slots2bytes() - MailboxHeaderSize
}

func (m *Mailbox) slots2bytes() int { return m.slotChunks * m.reg.PayloadSize() }

// Grant reserves a free slot for a result write. It returns false when
// every slot is in flight; the caller falls back to inline delivery.
func (m *Mailbox) Grant() (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.free) == 0 {
		m.exhausted++
		return 0, false
	}
	slot := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.granted++
	return slot, true
}

// Cancel returns a granted slot without writing it (the server chose the
// inline fallback after all).
func (m *Mailbox) Cancel(slot int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.free = append(m.free, slot)
}

// WriteResult writes payload into the granted slot under a fresh sequence
// number and returns the descriptor to send to the client. Concurrent
// calls on distinct slots are safe.
func (m *Mailbox) WriteResult(slot int, payload []byte) (SlotRef, error) {
	if slot < 0 || slot >= m.slots {
		return SlotRef{}, fmt.Errorf("region: mailbox slot %d out of range", slot)
	}
	total := MailboxHeaderSize + len(payload)
	if total > m.slots2bytes() {
		return SlotRef{}, fmt.Errorf("region: result %d bytes exceeds slot capacity %d", len(payload), m.Capacity())
	}
	m.mu.Lock()
	m.nextSeq++
	seq := m.nextSeq
	m.seq[slot] = seq
	m.mu.Unlock()

	per := m.reg.PayloadSize()
	var hdr [MailboxHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], seq)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))

	chunks := (total + per - 1) / per
	first := m.base + slot*m.slotChunks
	// First chunk: header + leading payload bytes.
	n := per - MailboxHeaderSize
	if n > len(payload) {
		n = len(payload)
	}
	if err := m.reg.writePrefix(first, hdr[:], payload[:n]); err != nil {
		return SlotRef{}, err
	}
	// Remaining chunks: raw payload continuation.
	off := n
	for c := 1; c < chunks; c++ {
		n = per
		if n > len(payload)-off {
			n = len(payload) - off
		}
		if err := m.reg.WriteChunkPrefix(first+c, payload[off:off+n]); err != nil {
			return SlotRef{}, err
		}
		off += n
	}
	return SlotRef{Slot: slot, Chunks: chunks, Bytes: len(payload), Seq: seq}, nil
}

// Reclaim frees a slot after the client's ack. The ack echoes the
// descriptor's seq; a stale ack (slot already force-reclaimed and reused)
// is ignored. Returns whether the slot was freed.
func (m *Mailbox) Reclaim(slot int, seq uint64) bool {
	if slot < 0 || slot >= m.slots {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seq[slot] != seq {
		return false
	}
	m.seq[slot] = 0
	m.free = append(m.free, slot)
	return true
}

// Occupancy returns the number of slots currently in flight and the total.
func (m *Mailbox) Occupancy() (used, total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.slots - len(m.free), m.slots
}

// Granted returns the number of successful grants so far.
func (m *Mailbox) Granted() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.granted
}

// Exhausted returns the number of grants denied for want of a free slot.
func (m *Mailbox) Exhausted() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.exhausted
}

// MailboxChunks returns how many chunks of a slot the client must read to
// cover a payload of wantBytes, given the region's per-chunk payload size.
func MailboxChunks(wantBytes, payloadSize int) int {
	total := MailboxHeaderSize + wantBytes
	return (total + payloadSize - 1) / payloadSize
}

// AssembleMailbox validates and assembles a pulled slot from its decoded
// per-chunk payloads (each already version-checked with DecodeChunk). It
// verifies the slot header against the descriptor — seq must match wantSeq
// and the recorded length must match wantBytes — and returns the payload.
// A mismatch returns ErrStaleSlot: the pull raced a reuse of the slot and
// must be retried against a fresh descriptor or fall back.
func AssembleMailbox(payloads [][]byte, wantSeq uint64, wantBytes int) ([]byte, error) {
	if len(payloads) == 0 || len(payloads[0]) < MailboxHeaderSize {
		return nil, fmt.Errorf("%w: missing slot header", ErrStaleSlot)
	}
	hdr := payloads[0]
	seq := binary.LittleEndian.Uint64(hdr[0:])
	length := int(binary.LittleEndian.Uint32(hdr[8:]))
	if seq != wantSeq || length != wantBytes {
		return nil, fmt.Errorf("%w: header (seq=%d len=%d) vs descriptor (seq=%d len=%d)",
			ErrStaleSlot, seq, length, wantSeq, wantBytes)
	}
	// Count before allocating: the length word came off the wire, and a
	// slot that cannot hold it must not size the buffer.
	have := len(hdr) - MailboxHeaderSize
	for _, p := range payloads[1:] {
		have += len(p)
	}
	if have < wantBytes {
		return nil, fmt.Errorf("%w: assembled %d of %d bytes", ErrStaleSlot, have, wantBytes)
	}
	out := make([]byte, 0, wantBytes)
	out = append(out, hdr[MailboxHeaderSize:min(len(hdr), MailboxHeaderSize+wantBytes)]...)
	for _, p := range payloads[1:] {
		out = append(out, p[:min(len(p), wantBytes-len(out))]...)
	}
	return out, nil
}
