// Batch container: one physical message carrying many logical messages.
//
// Fast-messaging batching (RDMAbox-style request merging) coalesces up to
// B pending requests into a single ring write, so the batch pays one RDMA
// Write, one doorbell, and one immediate-data completion event instead of
// B of each. The container is transport-neutral: the same layout travels
// in a ring-buffer frame and in an rpcnet TCP frame, and the sub-messages
// are ordinary encoded wire messages (Request, Response, ...),
// so CONT/END response segmentation nests unchanged inside a batch.
//
// Layout (little-endian):
//
//	[MsgBatch u8][count u16][ [size u32][sub-message] ... ]
//
// BatchEncoder builds the container append-only with no allocation beyond
// the caller's (reusable) buffer; BatchIter walks it without copying.
package wire

import (
	"encoding/binary"
	"fmt"
)

// MsgBatch frames a batch container holding count length-prefixed
// sub-messages. It follows the unused 7–15.
const MsgBatch MsgType = 16

const (
	// batchHeader is the container header: type byte + count.
	batchHeader = 1 + 2
	// batchSubHeader is the per-sub-message length prefix.
	batchSubHeader = 4
	// MaxBatch is the largest sub-message count a container can carry.
	MaxBatch = 1<<16 - 1
)

// BatchOverhead returns the container bytes added around n sub-messages,
// letting senders size flush thresholds against ring capacity.
func BatchOverhead(n int) int { return batchHeader + n*batchSubHeader }

// BatchEncoder builds a batch container into a reusable buffer. Usage:
//
//	enc.Reset(buf[:0])
//	for each message { enc.Begin(); enc.Buf = msg.Encode(enc.Buf); enc.End() }
//	payload := enc.Bytes()
//
// The zero value is invalid until Reset. Encoding allocates only when the
// underlying buffer must grow, so a warmed buffer encodes batches with
// zero allocations.
type BatchEncoder struct {
	// Buf is the buffer under construction; sub-message encoders append to
	// it between Begin and End.
	Buf   []byte
	start int // offset of the container header in Buf
	mark  int // offset of the open sub-message's length prefix
	count int
	open  bool
}

// Reset starts a new container appended to buf (normally buf[:0] of a
// reused backing array).
func (e *BatchEncoder) Reset(buf []byte) {
	e.start = len(buf)
	e.Buf = append(buf, byte(MsgBatch), 0, 0)
	e.mark = 0
	e.count = 0
	e.open = false
}

// Begin opens the next sub-message: everything appended to e.Buf before
// the matching End becomes its body.
func (e *BatchEncoder) Begin() {
	if e.open {
		panic("wire: BatchEncoder.Begin without End")
	}
	e.mark = len(e.Buf)
	e.Buf = append(e.Buf, 0, 0, 0, 0)
	e.open = true
}

// End closes the sub-message opened by Begin, patching its length prefix.
func (e *BatchEncoder) End() {
	if !e.open {
		panic("wire: BatchEncoder.End without Begin")
	}
	binary.LittleEndian.PutUint32(e.Buf[e.mark:], uint32(len(e.Buf)-e.mark-batchSubHeader))
	e.count++
	e.open = false
}

// Count returns the number of committed sub-messages.
func (e *BatchEncoder) Count() int { return e.count }

// Len returns the container size so far, including the open sub-message.
func (e *BatchEncoder) Len() int { return len(e.Buf) - e.start }

// Bytes patches the container count and returns the encoded container.
func (e *BatchEncoder) Bytes() []byte {
	if e.open {
		panic("wire: BatchEncoder.Bytes with open sub-message")
	}
	if e.count > MaxBatch {
		panic("wire: batch sub-message count overflow")
	}
	binary.LittleEndian.PutUint16(e.Buf[e.start+1:], uint16(e.count))
	return e.Buf[e.start:]
}

// BatchIter walks a batch container without copying. It is a value type:
//
//	it, err := DecodeBatch(payload)
//	for { msg, ok := it.Next(); if !ok { break }; ... }
//	if it.Err() != nil { ... }
type BatchIter struct {
	b         []byte
	remaining int
	err       error
}

// DecodeBatch validates the container header of b and returns an iterator
// over its sub-messages. Sub-message bodies alias b.
func DecodeBatch(b []byte) (BatchIter, error) {
	if len(b) < batchHeader || MsgType(b[0]) != MsgBatch {
		return BatchIter{}, fmt.Errorf("%w: batch header", ErrCorrupt)
	}
	return BatchIter{
		b:         b[batchHeader:],
		remaining: int(binary.LittleEndian.Uint16(b[1:])),
	}, nil
}

// Next returns the next sub-message body, or false when the container is
// exhausted or corrupt (check Err to distinguish).
func (it *BatchIter) Next() ([]byte, bool) {
	if it.remaining == 0 || it.err != nil {
		return nil, false
	}
	if len(it.b) < batchSubHeader {
		it.err = fmt.Errorf("%w: batch truncated with %d sub-messages left", ErrCorrupt, it.remaining)
		return nil, false
	}
	sz := int(binary.LittleEndian.Uint32(it.b))
	if sz < 0 || len(it.b)-batchSubHeader < sz {
		it.err = fmt.Errorf("%w: batch sub-message size %d of %d bytes", ErrCorrupt, sz, len(it.b)-batchSubHeader)
		return nil, false
	}
	msg := it.b[batchSubHeader : batchSubHeader+sz]
	it.b = it.b[batchSubHeader+sz:]
	it.remaining--
	return msg, true
}

// Err reports a container corruption encountered by Next.
func (it *BatchIter) Err() error { return it.err }

// DecodeResponseInto parses a response into *r, reusing r.Items' capacity
// instead of allocating a fresh slice — the zero-copy hot path's decoder.
// The previous contents of *r are overwritten.
func DecodeResponseInto(b []byte, r *Response) error {
	count, err := responseCount(b)
	if err != nil {
		return err
	}
	r.ID = binary.LittleEndian.Uint64(b[1:])
	r.Final = b[9] == 1
	r.Status = b[10]
	r.Items = appendItems(r.Items[:0], b[respHeader:], count)
	return nil
}
