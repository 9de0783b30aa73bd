package rtree

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeNode: DecodeNode is what an offloading client runs on every
// node image it reads from the server's region, so it must take arbitrary
// bytes. It never panics or reads past the payload, fails only with
// ErrCorruptNode, accepts only a level up to 64 and a count the payload
// holds, replaces whatever the node held before, and what it accepts
// re-encodes to the bytes it read (the reserved word aside, which it
// ignores) and decodes back to itself. A maxEntries bound below the count
// rejects the image. It returns exactly what refDecodeNode, the decoder it
// replaced, returns from the same starting node: the same error text, level
// and bit-identical entries. The seed corpus in
// testdata/fuzz/FuzzDecodeNode holds a valid leaf and internal node, a torn
// image (the header of one write over the entries of another), a truncated
// one, an oversized count and level 65.
func FuzzDecodeNode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)]
		for _, maxEntries := range []int{0, 8} {
			got := Node{Level: 7, Entries: make([]Entry, 3, 8)}
			want := Node{Level: 7, Entries: make([]Entry, 3, 8)}
			gerr, werr := DecodeNode(b, &got, maxEntries), refDecodeNode(b, &want, maxEntries)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) ||
				got.Level != want.Level || cap(got.Entries) != cap(want.Entries) || !sameEntries(got.Entries, want.Entries) {
				t.Fatalf("maxEntries %d: DecodeNode = level %d, %d entries, %v; reference level %d, %d entries, %v",
					maxEntries, got.Level, len(got.Entries), gerr, want.Level, len(want.Entries), werr)
			}
		}
		n := Node{Level: 7, Entries: make([]Entry, 3, 8)}
		if err := DecodeNode(b, &n, 0); err != nil {
			if !errors.Is(err, ErrCorruptNode) {
				t.Fatalf("error %v is not ErrCorruptNode", err)
			}
			return
		}
		count := len(n.Entries)
		if n.Level > 64 || headerSize+count*EntrySize > len(b) {
			t.Fatalf("accepted level %d, %d entries from %d bytes", n.Level, count, len(b))
		}
		enc := n.Encode(nil)
		want := bytes.Clone(b[:n.EncodedSize()])
		clear(want[8:headerSize])
		if !bytes.Equal(enc, want) {
			t.Fatalf("decoded node re-encodes to different bytes:\n got %x\nwant %x", enc, want)
		}
		var back Node
		if err := DecodeNode(enc, &back, count); err != nil {
			t.Fatalf("re-encoded node does not decode: %v", err)
		}
		if !bytes.Equal(back.Encode(nil), enc) {
			t.Fatal("round trip through Encode and DecodeNode changed the node")
		}
		if count > 2 {
			if err := DecodeNode(b, &back, count-2); !errors.Is(err, ErrCorruptNode) {
				t.Fatalf("%d entries accepted under maxEntries %d: %v", count, count-2, err)
			}
		}
	})
}
