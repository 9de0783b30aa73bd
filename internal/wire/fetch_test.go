package wire

import (
	"errors"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
)

func TestFetchDescRoundtrip(t *testing.T) {
	d := FetchDesc{ID: 99, Status: StatusOK, Slot: 7, Bytes: 4000, Count: 100, Seq: 1 << 40}
	buf := d.Encode(nil)
	if len(buf) != FetchDescSize {
		t.Fatalf("encoded size %d, want %d", len(buf), FetchDescSize)
	}
	got, err := DecodeFetchDesc(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("roundtrip %+v != %+v", got, d)
	}
	if typ, err := PeekType(buf); err != nil || typ != MsgFetchDesc {
		t.Fatalf("peek = %v, %v", typ, err)
	}
	if _, err := DecodeFetchDesc(buf[:5]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated decode error = %v", err)
	}
}

func TestFetchAckAndReadMailboxRoundtrip(t *testing.T) {
	a := FetchAck{Slot: 3, Seq: 12345}
	got, err := DecodeFetchAck(a.Encode(nil))
	if err != nil || got != a {
		t.Fatalf("ack roundtrip %+v, %v", got, err)
	}
	r := Read{ID: 8, Space: SpaceMailbox, Chunk: 640, Count: 16}
	rgot, err := DecodeRead(r.Encode(nil))
	if err != nil || rgot != r {
		t.Fatalf("read-mailbox roundtrip %+v, %v", rgot, err)
	}
}

func TestPackedItemsRoundtrip(t *testing.T) {
	items := []Item{
		{Rect: geo.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.3, MaxY: 0.4}, Ref: 11},
		{Rect: geo.Rect{MinX: 0.5, MinY: 0.6, MaxX: 0.7, MaxY: 0.8}, Ref: 22},
	}
	buf := EncodeItems(nil, items)
	if len(buf) != len(items)*ItemSize {
		t.Fatalf("packed size %d, want %d", len(buf), len(items)*ItemSize)
	}
	got, err := DecodeItems(buf, len(items))
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("item %d: %+v != %+v", i, got[i], items[i])
		}
	}
	if _, err := DecodeItems(buf, len(items)+1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-count decode error = %v", err)
	}
}
