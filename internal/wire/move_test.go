package wire

import (
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
)

func TestMoveRequestRoundTrip(t *testing.T) {
	want := MoveRequest(42, geo.NewRect(0.1, 0.2, 0.3, 0.4), geo.NewRect(0.5, 0.6, 0.7, 0.8), 99)
	buf := want.Encode(nil)
	if len(buf) != MoveRequestSize {
		t.Fatalf("encoded %d bytes, want %d", len(buf), MoveRequestSize)
	}
	got, err := DecodeRequest(buf)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if got != want {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
}

func TestMoveRequestDeadline(t *testing.T) {
	want := MoveRequest(7, geo.PointRect(0.25, 0.25), geo.PointRect(0.26, 0.25), 3)
	want.DeadlineUS = 1500
	buf := want.Encode(nil)
	if len(buf) != MoveRequestSize+4 {
		t.Fatalf("encoded %d bytes, want %d", len(buf), MoveRequestSize+4)
	}
	got, err := DecodeRequest(buf)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if got != want {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
	// A truncated move (no destination rectangle) must be rejected, not
	// silently parsed as a legacy request.
	if _, err := DecodeRequest(buf[:RequestSize]); err == nil {
		t.Error("truncated move decoded without error")
	}
}

func TestKNNRequestRoundTrip(t *testing.T) {
	want := KNNRequest(11, 5, 0.5, 0.75)
	buf := want.Encode(nil)
	if len(buf) != RequestSize {
		t.Fatalf("kNN encoded %d bytes, want legacy %d", len(buf), RequestSize)
	}
	got, err := DecodeRequest(buf)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if got != want {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
	if got.Ref != 5 {
		t.Errorf("k = %d, want 5", got.Ref)
	}
	if x, y := got.Rect.Center(); x != 0.5 || y != 0.75 {
		t.Errorf("query point = (%g,%g), want (0.5,0.75)", x, y)
	}

	fetch := want
	fetch.Type = MsgKNNFetch
	if got, err := DecodeRequest(fetch.Encode(nil)); err != nil || got.Type != MsgKNNFetch {
		t.Errorf("kNN-fetch round trip: %+v, %v", got, err)
	}
}

func TestPeekTypeGeoOps(t *testing.T) {
	for _, typ := range []MsgType{MsgMove, MsgKNN, MsgKNNFetch} {
		if got, err := PeekType([]byte{byte(typ)}); err != nil || got != typ {
			t.Errorf("PeekType(%d) = %d, %v", typ, got, err)
		}
	}
	if _, err := PeekType([]byte{byte(MsgKNNFetch + 1)}); err == nil {
		t.Error("PeekType accepted a type past MsgKNNFetch")
	}
}

func TestMoveInBatch(t *testing.T) {
	var enc BatchEncoder
	enc.Reset(nil)
	enc.Begin()
	enc.Buf = MoveRequest(1, geo.PointRect(0.1, 0.1), geo.PointRect(0.2, 0.2), 8).Encode(enc.Buf)
	enc.End()
	enc.Begin()
	enc.Buf = KNNRequest(2, 3, 0.5, 0.5).Encode(enc.Buf)
	enc.End()
	it, err := DecodeBatch(enc.Bytes())
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	sub, ok := it.Next()
	if !ok {
		t.Fatal("missing first sub-message")
	}
	if req, err := DecodeRequest(sub); err != nil || req.Type != MsgMove || req.Rect2 != geo.PointRect(0.2, 0.2) {
		t.Errorf("move sub-message: %+v, %v", req, err)
	}
	sub, ok = it.Next()
	if !ok {
		t.Fatal("missing second sub-message")
	}
	if req, err := DecodeRequest(sub); err != nil || req.Type != MsgKNN || req.Ref != 3 {
		t.Errorf("knn sub-message: %+v, %v", req, err)
	}
}

// MoveRequest builds the request relocating entry ref from rectangle from
// to rectangle to.
func MoveRequest(id uint64, from, to geo.Rect, ref uint64) Request {
	return Request{Type: MsgMove, ID: id, Rect: from, Ref: ref, Rect2: to}
}
