package region

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync/atomic"
	"testing"
)

// refReadLineStable is readLineStable as it stood before the field-wise
// rewrite: the payload words are staged in a local array between the two
// version loads and copied into dst only once the line is stable (or given
// up on). It is the oracle for what a read must return.
func refReadLineStable(line []uint64, dst []byte) {
	for attempt := 0; ; attempt++ {
		v1 := atomic.LoadUint64(&line[0])
		var words [payloadWords]uint64
		for w := 0; w < payloadWords; w++ {
			words[w] = atomic.LoadUint64(&line[1+w])
		}
		v2 := atomic.LoadUint64(&line[0])
		stable := v1&1 == 0 && v1 == v2
		if stable || attempt >= stableAttempts {
			if !stable {
				v1 |= 1 // giving up: the image may mix two writes, so it must decode as torn
			}
			binary.LittleEndian.PutUint64(dst, v1)
			for w := 0; w < payloadWords; w++ {
				binary.LittleEndian.PutUint64(dst[8+w*8:], words[w])
			}
			return
		}
	}
}

// refReadChunkRaw is ReadChunkRaw over refReadLineStable.
func refReadChunkRaw(r *Region, id int, dst []byte) {
	c := r.chunk(id)
	for l := 0; l < r.lines; l++ {
		refReadLineStable(c[l*wordsPerLine:(l+1)*wordsPerLine], dst[l*CacheLine:(l+1)*CacheLine])
	}
}

// refDecodeChunk is DecodeChunk as it stood before the field-wise rewrite:
// one append per line.
func refDecodeChunk(raw []byte, dst []byte) ([]byte, uint64, error) {
	if len(raw) == 0 || len(raw)%CacheLine != 0 {
		return nil, 0, ErrSizeMismatch
	}
	lines := len(raw) / CacheLine
	version := binary.LittleEndian.Uint64(raw)
	if version&1 != 0 {
		return nil, version, ErrTornRead
	}
	for l := 1; l < lines; l++ {
		if binary.LittleEndian.Uint64(raw[l*CacheLine:]) != version {
			return nil, version, ErrTornRead
		}
	}
	if cap(dst) < lines*LineData {
		dst = make([]byte, 0, lines*LineData)
	}
	dst = dst[:0]
	for l := 0; l < lines; l++ {
		dst = append(dst, raw[l*CacheLine+VersionSize:(l+1)*CacheLine]...)
	}
	return dst, version, nil
}

// TestReadChunkRawMatchesReference: against a quiescent region — chunks
// never written, fully written, prefix-written over stale tails, half of a
// staged write published, and a line left odd by a writer that never
// finished — ReadChunkRaw returns the reference's image byte for byte, and
// DecodeChunk of it the reference's payload, version and error.
func TestReadChunkRawMatchesReference(t *testing.T) {
	const chunks, chunkSize = 6, 1024
	r := mustRegion(t, chunks, chunkSize)
	rng := rand.New(rand.NewSource(36))
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	// Chunk 0 stays uncommitted: it reads as the shared zero chunk.
	if err := r.WriteChunk(1, payload(r.PayloadSize())); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChunk(2, payload(r.PayloadSize())); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChunkPrefix(2, payload(3*LineData+5)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.BeginWrite(3, payload(r.PayloadSize())); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChunk(4, payload(100)); err != nil {
		t.Fatal(err)
	}
	// Chunk 5: its second line stuck mid-write, so both readers give up on it.
	if err := r.WriteChunk(5, payload(r.PayloadSize())); err != nil {
		t.Fatal(err)
	}
	stuck := r.writable(5)
	atomic.StoreUint64(&stuck[wordsPerLine], atomic.LoadUint64(&stuck[wordsPerLine])|1)

	got, want := make([]byte, chunkSize), make([]byte, chunkSize)
	for id := 0; id < chunks; id++ {
		rng.Read(got) // a retry or a short read would leave these bytes behind
		if err := r.ReadChunkRaw(id, got); err != nil {
			t.Fatal(err)
		}
		refReadChunkRaw(r, id, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: raw image differs from the reference\n got %x\nwant %x", id, got, want)
		}
		gp, gv, gerr := DecodeChunk(got, make([]byte, 3, 8))
		wp, wv, werr := refDecodeChunk(want, make([]byte, 3, 8))
		if gerr != werr || gv != wv || !bytes.Equal(gp, wp) || (gp == nil) != (wp == nil) {
			t.Fatalf("chunk %d: DecodeChunk = %d bytes, v%d, %v; reference %d bytes, v%d, %v",
				id, len(gp), gv, gerr, len(wp), wv, werr)
		}
	}
}
