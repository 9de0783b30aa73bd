package wire

import (
	"errors"
	"testing"
)

// fuzzSeeds are well-formed and near-miss reply frames: each reply type, a
// multi-item response, truncations, and a count that overruns the body.
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
	f.Add(FetchDesc{ID: 5, Slot: 1, Bytes: 40, Count: 1, Seq: 2}.Encode(nil))
	f.Add(ShardMapData{ID: 6}.Encode(nil))
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
