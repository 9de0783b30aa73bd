package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
)

// fuzzSeeds are well-formed and near-miss reply frames: each reply type, a
// multi-item response, truncations, a count that overruns the body, and
// batch containers — whole, cut mid-sub-message, and announcing more
// sub-messages than they hold.
func fuzzSeeds(f *testing.F) {
	resp := Response{ID: 1<<40 | 7, Final: true, Status: StatusOK, Items: []Item{{Ref: 1}, {Ref: 2}, {Ref: 3}}}.Encode(nil)
	f.Add(resp)
	f.Add(resp[:len(resp)-1])
	f.Add(resp[:respHeader])
	f.Add(resp[:5])
	overrun := append([]byte(nil), resp...)
	overrun[11], overrun[12], overrun[13], overrun[14] = 0xff, 0xff, 0xff, 0xff
	f.Add(overrun)
	f.Add(Response{ID: 9}.Encode(nil))
	f.Add(ChunkData{ID: 2, Raw: []byte{1, 2, 3}}.Encode(nil))
	f.Add(SpanData{ID: 3, Raw: []byte{4}}.Encode(nil))
	f.Add(VersionData{ID: 4, Versions: []byte{5}}.Encode(nil))
	desc := FetchDesc{ID: 5, Slot: 1, Bytes: 40, Count: 1, Seq: 2}.Encode(nil)
	f.Add(desc)
	f.Add(desc[:FetchDescSize-1])
	f.Add(ShardMapData{ID: 6}.Encode(nil))
	var enc BatchEncoder
	enc.Reset(nil)
	for _, msg := range [][]byte{resp, desc, nil} {
		enc.Begin()
		enc.Buf = append(enc.Buf, msg...)
		enc.End()
	}
	batch := enc.Bytes()
	f.Add(batch)
	f.Add(batch[:len(batch)-len(desc)/2-batchSubHeader])
	f.Add(batch[:batchHeader+2])
	short := append([]byte(nil), batch...)
	short[1] = 9 // announces nine sub-messages, holds three
	f.Add(short)
	f.Add(Heartbeat{Util: 0.5}.Encode(nil))
	f.Add([]byte{})
}

// FuzzPeekID: the demultiplexer's header peek never panics or reads past
// the frame, accepts only reply types, and — whenever the full decoder of
// that type accepts the frame — agrees with it on the id.
func FuzzPeekID(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		typ, id, err := PeekID(b[:len(b):len(b)])
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			if _, derr := DecodeResponse(b); derr == nil {
				t.Fatal("PeekID rejected a frame DecodeResponse accepts")
			}
			return
		}
		if len(b) < 9 || typ != MsgType(b[0]) {
			t.Fatalf("accepted %d-byte frame as type %d", len(b), typ)
		}
		var want uint64
		var derr error
		switch typ {
		case MsgResponse:
			var r Response
			r, derr = DecodeResponse(b)
			want = r.ID
		case MsgChunkData:
			var r ChunkData
			r, derr = DecodeChunkData(b)
			want = r.ID
		case MsgVersionData:
			var r VersionData
			r, derr = DecodeVersionData(b)
			want = r.ID
		case MsgSpanData:
			var r SpanData
			r, derr = DecodeSpanData(b)
			want = r.ID
		case MsgFetchDesc:
			var r FetchDesc
			r, derr = DecodeFetchDesc(b)
			want = r.ID
		case MsgShardMapData:
			var r ShardMapData
			r, derr = DecodeShardMapData(b)
			want = r.ID
		default:
			t.Fatalf("accepted non-reply type %d", typ)
		}
		if derr == nil && id != want {
			t.Fatalf("type %d: peeked id %d, decoder says %d", typ, id, want)
		}
	})
}

// FuzzDecodeResponseAppend: the in-place segment decoder never panics or
// over-reads, accepts exactly what DecodeResponse accepts, returns the same
// header and items, leaves what dst already held alone, and hands dst back
// unextended on error.
func FuzzDecodeResponseAppend(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)]
		want, werr := DecodeResponse(b)
		prior := []Item{{Ref: 0xfeed}, {Ref: 0xbeef}}
		got, gerr := DecodeResponseAppend(b, prior[:2:2])
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("DecodeResponse err %v, DecodeResponseAppend err %v", werr, gerr)
		}
		hdr, n, perr := PeekResponse(b)
		if (perr == nil) != (werr == nil) {
			t.Fatalf("DecodeResponse err %v, PeekResponse err %v", werr, perr)
		}
		if gerr != nil {
			if !errors.Is(gerr, ErrCorrupt) || len(got.Items) != 2 {
				t.Fatalf("error path: %v, %d items", gerr, len(got.Items))
			}
			return
		}
		if got.ID != want.ID || got.Final != want.Final || got.Status != want.Status ||
			hdr.ID != want.ID || hdr.Final != want.Final || hdr.Status != want.Status || n != len(want.Items) {
			t.Fatalf("headers differ: %+v / %+v / %+v (%d)", got, want, hdr, n)
		}
		if len(got.Items) != 2+len(want.Items) || got.Items[0].Ref != 0xfeed || got.Items[1].Ref != 0xbeef {
			t.Fatalf("%d items after appending %d to 2", len(got.Items), len(want.Items))
		}
		for i, it := range want.Items {
			// Compare encodings: NaN coordinates are legal on the wire.
			if string(AppendItem(nil, got.Items[2+i].Rect, got.Items[2+i].Ref)) != string(AppendItem(nil, it.Rect, it.Ref)) {
				t.Fatalf("item %d differs", i)
			}
		}
	})
}

// FuzzDecodeBatch: the container iterator never panics or reads past the
// frame, hands out sub-messages that tile the frame in order, returns at
// most as many as the header announces, sets Err — to ErrCorrupt — exactly
// when it stops short of that, and re-encoding what it returned reproduces
// the bytes it consumed.
func FuzzDecodeBatch(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)]
		it, err := DecodeBatch(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			return
		}
		announced := it.Len()
		var enc BatchEncoder
		enc.Reset(nil)
		for {
			msg, ok := it.Next()
			if !ok {
				break
			}
			enc.Begin()
			enc.Buf = append(enc.Buf, msg...)
			enc.End()
		}
		if enc.Count() > announced {
			t.Fatalf("returned %d sub-messages of %d announced", enc.Count(), announced)
		}
		if complete := enc.Count() == announced; complete != (it.Err() == nil) {
			t.Fatalf("returned %d of %d sub-messages, Err = %v", enc.Count(), announced, it.Err())
		}
		if it.Err() != nil && !errors.Is(it.Err(), ErrCorrupt) {
			t.Fatalf("error %v is not ErrCorrupt", it.Err())
		}
		if _, ok := it.Next(); ok {
			t.Fatal("Next yielded after reporting the end")
		}
		got := enc.Bytes()
		if len(got) > len(b) || !bytes.Equal(got[batchHeader:], b[batchHeader:len(got)]) {
			t.Fatalf("sub-messages do not tile the frame: re-encoded %d bytes of %d", len(got), len(b))
		}
	})
}

// FuzzDecodeFetchDesc: the descriptor decoder never panics or over-reads,
// fails only with ErrCorrupt, and what it accepts re-encodes to the bytes
// it read and carries the id the demultiplexer routed it by.
func FuzzDecodeFetchDesc(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)]
		d, err := DecodeFetchDesc(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			return
		}
		if len(b) < FetchDescSize || !bytes.Equal(d.Encode(nil), b[:FetchDescSize]) {
			t.Fatalf("accepted %d-byte frame does not round-trip: %+v", len(b), d)
		}
		if typ, id, perr := PeekID(b); perr != nil || typ != MsgFetchDesc || id != d.ID {
			t.Fatalf("PeekID = (%d, %d, %v), decoder says id %d", typ, id, perr, d.ID)
		}
	})
}

// prefixOf fails t unless enc, what a decoded message re-encodes to, is the
// prefix of the frame b the decoder read.
func prefixOf(t *testing.T, enc, b []byte) {
	t.Helper()
	if len(enc) > len(b) || !bytes.Equal(enc, b[:len(enc)]) {
		t.Fatalf("accepted %d-byte frame does not round-trip:\n got %x\nwant %x", len(b), enc, b)
	}
}

// corrupt fails t unless err, a decoder's refusal, is ErrCorrupt.
func corrupt(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v is not ErrCorrupt", err)
	}
}

// FuzzDecodeRequest: the server decodes every request frame a client sends,
// so the decoder takes arbitrary bytes. It never panics or reads past the
// frame, fails only with ErrCorrupt, accepts only request types, reads a
// MOVE's destination and, when the frame carries one, the deadline word, and
// what it accepts re-encodes to the bytes it read (a zero deadline word
// re-encodes as the layout without one). The seed corpus in
// testdata/fuzz/FuzzDecodeRequest holds a search and a MOVE, each with and
// without a deadline, a kNN, a zero deadline word, truncations of both
// layouts and a reply type in a request-sized frame.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)]
		r, err := DecodeRequest(b)
		if err != nil {
			corrupt(t, err)
			return
		}
		size := RequestSize
		if r.Type == MsgMove {
			size = MoveRequestSize
		} else if r.Rect2 != (geo.Rect{}) {
			t.Fatalf("type %d request decoded a destination", r.Type)
		}
		if len(b) >= size+4 && binary.LittleEndian.Uint32(b[size:]) != r.DeadlineUS {
			t.Fatalf("deadline word %d decoded as %d", binary.LittleEndian.Uint32(b[size:]), r.DeadlineUS)
		}
		enc := r.Encode(nil)
		prefixOf(t, enc, b)
		if back, err := DecodeRequest(enc); err != nil || !bytes.Equal(back.Encode(nil), enc) {
			t.Fatalf("re-encoded request does not decode to itself: %v", err)
		}
	})
}

// FuzzDecodeHello: a client decodes the server's hello before anything
// else. The decoder never panics or over-reads, fails only with ErrCorrupt,
// and what it accepts re-encodes to the bytes it read. The seed corpus holds
// a sharded, fetch-enabled hello, a truncated one and a heartbeat in a
// hello-sized frame.
func FuzzDecodeHello(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)]
		h, err := DecodeHello(b)
		if err != nil {
			corrupt(t, err)
			return
		}
		prefixOf(t, h.Encode(nil), b)
	})
}

// FuzzDecodeHeartbeat: every connection's reader decodes heartbeats pushed
// between replies. The decoder never panics or over-reads, fails only with
// ErrCorrupt, and what it accepts — NaN utilization words included —
// re-encodes to the bytes it read. The seed corpus holds a heartbeat with
// every replication word set, a truncated one and a hello in its place.
func FuzzDecodeHeartbeat(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)]
		hb, err := DecodeHeartbeat(b)
		if err != nil {
			corrupt(t, err)
			return
		}
		prefixOf(t, hb.Encode(nil), b)
	})
}

// FuzzDecodeReplicate: a backup decodes the record batches its primary
// streams. The decoder never panics or over-reads, fails only with
// ErrCorrupt, never accepts more than MaxReplRecords records, and what it
// accepts re-encodes to the bytes it read. The seed corpus holds a
// two-record batch, an empty one, a batch one byte short, a wrong type and a
// count of 2^32-1 over one record.
func FuzzDecodeReplicate(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)]
		r, err := DecodeReplicate(b)
		if err != nil {
			corrupt(t, err)
			return
		}
		if len(r.Records) > MaxReplRecords {
			t.Fatalf("accepted %d records", len(r.Records))
		}
		prefixOf(t, r.Encode(nil), b)
	})
}

// FuzzDecodeReplAck: a primary decodes each backup's ack. The decoder never
// panics or over-reads, fails only with ErrCorrupt, and what it accepts
// re-encodes to the bytes it read. The seed corpus holds a fenced ack, a
// truncated one and a replicate header in its place.
func FuzzDecodeReplAck(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)]
		a, err := DecodeReplAck(b)
		if err != nil {
			corrupt(t, err)
			return
		}
		prefixOf(t, a.Encode(nil), b)
	})
}

// FuzzDecodeRawReply: every one-sided read's reply (chunk, span and version
// data) goes through DecodeRawReply. For each of the three types it never
// panics or over-reads, fails only with ErrCorrupt, accepts only a frame of
// that type holding the body length it announces, hands back a body that
// aliases the frame, and what it accepts re-encodes to the bytes it read.
// The seed corpus holds one reply of each type, a truncated body, a
// response in their place and a body length of 2^32-1.
func FuzzDecodeRawReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)]
		for _, typ := range []MsgType{MsgChunkData, MsgSpanData, MsgVersionData} {
			id, status, body, err := DecodeRawReply(b, typ)
			if err != nil {
				corrupt(t, err)
				continue
			}
			if MsgType(b[0]) != typ {
				t.Fatalf("type %d frame accepted as type %d", b[0], typ)
			}
			if len(body) > 0 && &body[0] != &b[chunkDataHeader] {
				t.Fatal("body does not alias the frame")
			}
			msg, dst := AppendRawReply(nil, typ, id, status, len(body))
			copy(dst, body)
			prefixOf(t, msg, b)
		}
	})
}

// FuzzDecodeShardMapRequest: a server decodes the shard-map request any
// router sends. The decoder never panics or over-reads, fails only with
// ErrCorrupt, and what it accepts re-encodes to the bytes it read. The seed
// corpus holds a request, a truncated one and a shard-map reply in its
// place.
func FuzzDecodeShardMapRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)]
		r, err := DecodeShardMapRequest(b)
		if err != nil {
			corrupt(t, err)
			return
		}
		prefixOf(t, r.Encode(nil), b)
	})
}

// FuzzDecodeShardMapData: a router adopts the shard map a server sends,
// cells and address table included. The decoder never panics or
// over-reads, fails only with ErrCorrupt, never accepts more than
// MaxShardCells cells, and what it accepts — NaN and infinite coordinates
// included — re-encodes to the bytes it read. The seed corpus holds a map
// with infinite boundary cells and an address table, one without the
// table, one cut inside the table, a cell count of 2^32-1 and a request in
// its place.
func FuzzDecodeShardMapData(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)]
		m, err := DecodeShardMapData(b)
		if err != nil {
			corrupt(t, err)
			return
		}
		if len(m.Cells) > MaxShardCells {
			t.Fatalf("accepted %d cells", len(m.Cells))
		}
		prefixOf(t, m.Encode(nil), b)
	})
}
