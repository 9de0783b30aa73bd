package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
)

func randItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Rect: geo.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()), Ref: rng.Uint64()}
	}
	return items
}

// TestStreamedEncodeMatchesEncode: a header plus one AppendItem per item is
// byte for byte Response.Encode, and the items alone are EncodeItems.
func TestStreamedEncodeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 102} {
		items := randItems(rng, n)
		for _, final := range []bool{false, true} {
			want := Response{ID: 77, Final: final, Status: StatusNotFound, Items: items}.Encode([]byte("prefix"))
			got := AppendResponseHeader([]byte("prefix"), 77, final, StatusNotFound, n)
			packed := []byte{}
			for _, it := range items {
				got = AppendItem(got, it.Rect, it.Ref)
				packed = AppendItem(packed, it.Rect, it.Ref)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d final=%v: streamed encoding differs from Response.Encode", n, final)
			}
			if !bytes.Equal(packed, EncodeItems(nil, items)) {
				t.Fatalf("n=%d: streamed items differ from EncodeItems", n)
			}
		}
	}
}

// TestDecodeResponseAppendFolds: folding segments through the append
// decoder yields every item once, in order, in a slice grown exactly once
// when sized up front — and never touches dst on a corrupt segment.
func TestDecodeResponseAppendFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := randItems(rng, 250)
	var segs [][]byte
	for at := 0; at < len(items); at += 100 {
		end := min(at+100, len(items))
		segs = append(segs, Response{ID: 5, Final: end == len(items), Items: items[at:end]}.Encode(nil))
	}
	dst := make([]Item, 0, len(items))
	base := &dst[:1][0]
	for i, seg := range segs {
		hdr, n, err := PeekResponse(seg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := DecodeResponseAppend(seg, dst)
		if err != nil {
			t.Fatal(err)
		}
		if r.ID != 5 || r.Final != (i == len(segs)-1) || r.Final != hdr.Final || len(r.Items) != len(dst)+n {
			t.Fatalf("segment %d: %+v (peek %+v, %d items)", i, r, hdr, n)
		}
		dst = r.Items
	}
	if &dst[0] != base {
		t.Error("a presized result slice was reallocated")
	}
	for i := range items {
		if dst[i] != items[i] {
			t.Fatalf("item %d mismatch", i)
		}
	}
	// Too small a dst grows once, to exactly what the segment needs.
	r, err := DecodeResponseAppend(segs[0], dst[:3:3])
	if err != nil || len(r.Items) != 103 || cap(r.Items) != 103 || r.Items[2] != items[2] || r.Items[3] != items[0] {
		t.Fatalf("grow: len %d cap %d err %v", len(r.Items), cap(r.Items), err)
	}
	// Corrupt: dst comes back as it went in.
	r, err = DecodeResponseAppend(segs[0][:len(segs[0])-1], dst[:3])
	if !errors.Is(err, ErrCorrupt) || len(r.Items) != 3 {
		t.Fatalf("truncated segment: %d items, err %v", len(r.Items), err)
	}
}

func TestPeekID(t *testing.T) {
	for _, msg := range [][]byte{
		Response{ID: 11, Items: make([]Item, 2)}.Encode(nil),
		readData(11, StatusOK, []byte{1}),
		readData(11, StatusError, nil),
		FetchDesc{ID: 11}.Encode(nil),
		ShardMapData{ID: 11}.Encode(nil),
	} {
		typ, id, err := PeekID(msg)
		if err != nil || id != 11 || typ != MsgType(msg[0]) {
			t.Errorf("type %d: PeekID = %d, %d, %v", msg[0], typ, id, err)
		}
		if _, _, err := PeekID(msg[:8]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("type %d: short header accepted", msg[0])
		}
	}
	// Requests, heartbeats and containers carry no routable reply id.
	for _, msg := range [][]byte{
		Request{Type: MsgSearch, ID: 11}.Encode(nil),
		Read{ID: 11, Count: 1}.Encode(nil),
		Heartbeat{Util: 0.5}.Encode(nil),
		{byte(MsgBatch), 0, 0, 0, 0, 0, 0, 0, 0, 0},
		nil,
	} {
		if _, _, err := PeekID(msg); !errors.Is(err, ErrCorrupt) {
			t.Errorf("PeekID accepted non-reply %v", msg)
		}
	}
}
