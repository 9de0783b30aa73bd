package wire

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/catfish-db/catfish/internal/geo"
)

func TestRequestRoundTrip(t *testing.T) {
	tests := []Request{
		{Type: MsgSearch, ID: 1, Rect: geo.NewRect(0.1, 0.2, 0.3, 0.4)},
		{Type: MsgInsert, ID: 1 << 60, Rect: geo.NewRect(0, 0, 1, 1), Ref: 77},
		{Type: MsgDelete, ID: 0, Rect: geo.PointRect(0.5, 0.5), Ref: 1},
	}
	for _, want := range tests {
		buf := want.Encode(nil)
		if len(buf) != RequestSize {
			t.Errorf("encoded %d bytes, want %d", len(buf), RequestSize)
		}
		got, err := DecodeRequest(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestRequestDeadlineRoundTrip(t *testing.T) {
	want := Request{Type: MsgSearch, ID: 7, Rect: geo.NewRect(0.1, 0.2, 0.3, 0.4), DeadlineUS: 1500}
	buf := want.Encode(nil)
	if len(buf) != RequestSizeDeadline {
		t.Errorf("encoded %d bytes, want %d", len(buf), RequestSizeDeadline)
	}
	got, err := DecodeRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
	// A legacy decoder truncating at RequestSize must still see the same
	// request (sans deadline), and a deadline-free request must stay
	// byte-identical to the legacy layout.
	legacy, err := DecodeRequest(buf[:RequestSize])
	if err != nil {
		t.Fatal(err)
	}
	want.DeadlineUS = 0
	if legacy != want {
		t.Errorf("legacy decode: got %+v, want %+v", legacy, want)
	}
	if n := len(want.Encode(nil)); n != RequestSize {
		t.Errorf("deadline-free request encodes %d bytes, want %d", n, RequestSize)
	}
}

func TestRequestDecodeErrors(t *testing.T) {
	if _, err := DecodeRequest(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("nil err = %v", err)
	}
	if _, err := DecodeRequest(make([]byte, 10)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short err = %v", err)
	}
	buf := Request{Type: MsgSearch, ID: 1}.Encode(nil)
	buf[0] = 99
	if _, err := DecodeRequest(buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad type err = %v", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, count := range []int{0, 1, 50} {
		items := make([]Item, count)
		for i := range items {
			items[i] = Item{Rect: geo.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()), Ref: rng.Uint64()}
		}
		want := Response{ID: 42, Final: count%2 == 0, Status: StatusOK, Items: items}
		buf := want.Encode(nil)
		if len(buf) != want.EncodedSize() {
			t.Errorf("size %d != %d", len(buf), want.EncodedSize())
		}
		got, err := DecodeResponse(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != want.ID || got.Final != want.Final || got.Status != want.Status ||
			len(got.Items) != count {
			t.Fatalf("got %+v", got)
		}
		for i := range items {
			if got.Items[i] != items[i] {
				t.Fatalf("item %d mismatch", i)
			}
		}
	}
}

func TestResponseDecodeErrors(t *testing.T) {
	if _, err := DecodeResponse(make([]byte, 3)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short err = %v", err)
	}
	buf := Response{ID: 1, Items: []Item{{Ref: 1}}}.Encode(nil)
	if _, err := DecodeResponse(buf[:len(buf)-8]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated err = %v", err)
	}
	buf[0] = byte(MsgSearch)
	if _, err := DecodeResponse(buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong type err = %v", err)
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	for _, util := range []float64{0, 0.5, 0.987, 1} {
		want := Heartbeat{Util: util, RootVer: 9, TXUtil: 0.25, Epoch: 3, AppliedSeq: 1 << 40, MapVersion: 77}
		buf := want.Encode(nil)
		if len(buf) != HeartbeatSize {
			t.Fatalf("encoded size %d, want %d", len(buf), HeartbeatSize)
		}
		got, err := DecodeHeartbeat(buf)
		if err != nil || got != want {
			t.Errorf("got %+v, %v; want %+v", got, err, want)
		}
		// There is one layout: a frame one byte short is corrupt, not an
		// older version.
		if _, err := DecodeHeartbeat(buf[:HeartbeatSize-1]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("one byte short: err = %v, want ErrCorrupt", err)
		}
	}
	if _, err := DecodeHeartbeat(nil); !errors.Is(err, ErrCorrupt) {
		t.Error("nil heartbeat should fail")
	}
}

func TestPeekType(t *testing.T) {
	req := Request{Type: MsgInsert, ID: 9}.Encode(nil)
	typ, err := PeekType(req)
	if err != nil || typ != MsgInsert {
		t.Errorf("PeekType = %v, %v", typ, err)
	}
	hb := Heartbeat{Util: 0.5}.Encode(nil)
	typ, err = PeekType(hb)
	if err != nil || typ != MsgHeartbeat {
		t.Errorf("PeekType(hb) = %v, %v", typ, err)
	}
	if _, err := PeekType(nil); !errors.Is(err, ErrCorrupt) {
		t.Error("empty PeekType should fail")
	}
	if _, err := PeekType([]byte{200}); !errors.Is(err, ErrCorrupt) {
		t.Error("unknown PeekType should fail")
	}
}

// Property: request encode/decode is the identity.
func TestPropRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	types := []MsgType{MsgSearch, MsgInsert, MsgDelete}
	f := func() bool {
		want := Request{
			Type: types[rng.Intn(3)],
			ID:   rng.Uint64(),
			Rect: geo.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()),
			Ref:  rng.Uint64(),
		}
		got, err := DecodeRequest(want.Encode(nil))
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Encoding into a shared buffer must support appending multiple messages.
func TestEncodeAppends(t *testing.T) {
	buf := Request{Type: MsgSearch, ID: 1}.Encode(nil)
	buf = Heartbeat{Util: 0.25}.Encode(buf)
	if len(buf) != RequestSize+HeartbeatSize {
		t.Fatalf("len = %d", len(buf))
	}
	if _, err := DecodeRequest(buf[:RequestSize]); err != nil {
		t.Error(err)
	}
	if hb, err := DecodeHeartbeat(buf[RequestSize:]); err != nil || hb.Util != 0.25 {
		t.Errorf("hb = %+v, %v", hb, err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	want := Hello{
		RootChunk:   3,
		ChunkSize:   4096,
		MaxEntries:  64,
		NumChunks:   1 << 20,
		HeartbeatMs: 10,
		ServerEpoch: 0xDEADBEEF12345678,
		ShardIndex:  1, ShardCount: 4, MapVersion: 77,
		FetchSlots: 32, FetchSlotChunks: 64, ReplicaEpoch: 5,
		Index: IndexBTree,
	}
	buf := want.Encode(nil)
	if len(buf) != HelloSize {
		t.Errorf("size = %d, want %d", len(buf), HelloSize)
	}
	got, err := DecodeHello(buf)
	if err != nil || got != want {
		t.Errorf("got %+v, %v", got, err)
	}
	// There is one layout: a hello one byte short is corrupt, not an older
	// version.
	if _, err := DecodeHello(buf[:HelloSize-1]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("one byte short: err = %v, want ErrCorrupt", err)
	}
	buf[0] = byte(MsgSearch)
	if _, err := DecodeHello(buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("type err = %v", err)
	}
}

func TestReadChunkRoundTrip(t *testing.T) {
	want := ReadChunk{ID: 777, Chunk: 42}
	buf := want.Encode(nil)
	if len(buf) != ReadChunkSize {
		t.Errorf("size = %d", len(buf))
	}
	got, err := DecodeReadChunk(buf)
	if err != nil || got != want {
		t.Errorf("got %+v, %v", got, err)
	}
	if _, err := DecodeReadChunk(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("nil err = %v", err)
	}
}

func TestChunkDataRoundTrip(t *testing.T) {
	raw := []byte{1, 2, 3, 4, 5}
	want := ChunkData{ID: 9, Status: StatusOK, Raw: raw}
	buf := want.Encode(nil)
	if len(buf) != want.EncodedSize() {
		t.Errorf("size = %d, want %d", len(buf), want.EncodedSize())
	}
	got, err := DecodeChunkData(buf)
	if err != nil || got.ID != 9 || got.Status != StatusOK {
		t.Fatalf("got %+v, %v", got, err)
	}
	for i := range raw {
		if got.Raw[i] != raw[i] {
			t.Fatal("raw mismatch")
		}
	}
	// Raw aliases the input frame (documented).
	buf[len(buf)-1] = 99
	if got.Raw[4] != 99 {
		t.Error("Raw should alias the frame")
	}
	if _, err := DecodeChunkData(buf[:8]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short err = %v", err)
	}
	trunc := want.Encode(nil)
	if _, err := DecodeChunkData(trunc[:len(trunc)-2]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated err = %v", err)
	}
}

func TestChunkDataEmpty(t *testing.T) {
	buf := ChunkData{ID: 1, Status: StatusError}.Encode(nil)
	got, err := DecodeChunkData(buf)
	if err != nil || len(got.Raw) != 0 || got.Status != StatusError {
		t.Errorf("got %+v, %v", got, err)
	}
}
