package region

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzDecodeChunk: DecodeChunk is what an offloading client runs on every
// raw chunk image an RDMA Read returns, so it must take arbitrary bytes. It
// never panics or reads past the image; it fails with ErrSizeMismatch
// exactly when the image is empty or not whole cachelines and with
// ErrTornRead exactly when the first version is odd or a line's version
// differs from it; and what it accepts is every line's payload in order at
// the first line's version. That payload written into a region chunk of the
// image's size reads back raw and decodes to itself. The seed corpus in
// testdata/fuzz/FuzzDecodeChunk holds a written chunk, a torn one (a line at
// an older version), one caught mid-write (odd version), a truncated one,
// and consistent chunks whose node payload carries an oversized count or
// level 65 — bytes the chunk layer passes on for DecodeNode to refuse.
func FuzzDecodeChunk(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		raw = raw[:len(raw):len(raw)]
		payload, version, err := DecodeChunk(raw, make([]byte, 7, 64))
		if len(raw) == 0 || len(raw)%CacheLine != 0 {
			if !errors.Is(err, ErrSizeMismatch) {
				t.Fatalf("%d-byte image: err %v, want ErrSizeMismatch", len(raw), err)
			}
			return
		}
		lines := len(raw) / CacheLine
		first := binary.LittleEndian.Uint64(raw)
		torn := first&1 != 0
		for l := 1; l < lines; l++ {
			torn = torn || binary.LittleEndian.Uint64(raw[l*CacheLine:]) != first
		}
		if torn {
			if !errors.Is(err, ErrTornRead) {
				t.Fatalf("torn image: err %v, want ErrTornRead", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("consistent image rejected: %v", err)
		}
		if version != first || len(payload) != lines*LineData {
			t.Fatalf("version %d, %d payload bytes; want %d, %d", version, len(payload), first, lines*LineData)
		}
		for l := 0; l < lines; l++ {
			if !bytes.Equal(payload[l*LineData:(l+1)*LineData], raw[l*CacheLine+VersionSize:(l+1)*CacheLine]) {
				t.Fatalf("line %d payload differs from the image", l)
			}
		}
		if lines > 64 {
			return // larger than any chunk geometry in use; skip the region write
		}
		reg, err := New(1, len(raw))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteChunk(0, payload); err != nil {
			t.Fatal(err)
		}
		img := make([]byte, len(raw))
		if err := reg.ReadChunkRaw(0, img); err != nil {
			t.Fatal(err)
		}
		back, _, err := DecodeChunk(img, nil)
		if err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("written chunk decodes to %x, %v; want %x", back, err, payload)
		}
	})
}

// FuzzAssembleMailbox: a fetching client assembles a pulled mailbox slot
// from its chunk payloads against the descriptor the server sent, so the
// slot header and the descriptor's length are both untrusted. The input
// splits into payloads of per bytes (the last one shorter). The assembler
// never panics or reads past a payload, fails only with ErrStaleSlot, and
// accepts exactly when the header's seq and length match the descriptor
// and the payloads hold that many bytes after the header; what it accepts
// is those bytes. A mailbox that delivers them hands the client the same
// bytes back. The seed corpus in testdata/fuzz/FuzzAssembleMailbox holds a
// slot spanning three chunks, one cut short of its length, a stale seq, and
// a length word of 2^32-1 over a one-chunk slot.
func FuzzAssembleMailbox(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte, per uint16, wantSeq uint64, wantBytes uint32) {
		size := 1 + int(per)%4096
		var payloads [][]byte
		for off := 0; off < len(b); off += size {
			end := min(off+size, len(b))
			payloads = append(payloads, b[off:end:end])
		}
		got, err := AssembleMailbox(payloads, wantSeq, int(wantBytes))
		accept := len(payloads) > 0 && len(payloads[0]) >= MailboxHeaderSize &&
			binary.LittleEndian.Uint64(b) == wantSeq &&
			binary.LittleEndian.Uint32(b[8:]) == wantBytes &&
			len(b)-MailboxHeaderSize >= int(wantBytes)
		if !accept {
			if !errors.Is(err, ErrStaleSlot) {
				t.Fatalf("err %v, want ErrStaleSlot", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("matching slot rejected: %v", err)
		}
		if !bytes.Equal(got, b[MailboxHeaderSize:MailboxHeaderSize+int(wantBytes)]) {
			t.Fatalf("assembled %x, want the %d bytes after the header", got, wantBytes)
		}
		m := newTestMailbox(t, 1, 8, 256)
		if len(got) > m.Capacity() {
			return
		}
		slot, _ := m.Grant()
		ref, err := m.WriteResult(slot, got)
		if err != nil {
			t.Fatal(err)
		}
		back, err := pullSlot(t, m, ref)
		if err != nil || !bytes.Equal(back, got) {
			t.Fatalf("delivered slot pulls back %x, %v; want %x", back, err, got)
		}
	})
}
