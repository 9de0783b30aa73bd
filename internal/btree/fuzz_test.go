package btree

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeNode: DecodeNode is what the offloaded walk runs on every
// B+-tree node image it reads from the server's region, so it must take
// arbitrary bytes. It never panics or reads past the payload, fails only
// with ErrCorruptNode, accepts only a level up to 64, a count the payload
// holds, strictly ascending keys and a right sibling that is a chunk or
// none, replaces whatever the node held before, and what it accepts
// re-encodes to the bytes it read and decodes back to itself. A maxEntries
// bound below the count rejects the image. The seed corpus in
// testdata/fuzz/FuzzDecodeNode holds a valid leaf and internal node, a
// truncated header, unsorted keys, an oversized count and a huge Next.
func FuzzDecodeNode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)]
		n := Node{Level: 7, Next: 3, Entries: make([]Entry, 3, 8)}
		if err := DecodeNode(b, &n, 0); err != nil {
			if !errors.Is(err, ErrCorruptNode) {
				t.Fatalf("error %v is not ErrCorruptNode", err)
			}
			return
		}
		count := len(n.Entries)
		if n.Level > 64 || n.Next < -1 || headerSize+count*entrySize > len(b) {
			t.Fatalf("accepted level %d, next %d, %d entries from %d bytes", n.Level, n.Next, count, len(b))
		}
		for i := 1; i < count; i++ {
			if n.Entries[i-1].Key >= n.Entries[i].Key {
				t.Fatalf("accepted key %d after %d", n.Entries[i].Key, n.Entries[i-1].Key)
			}
		}
		enc := n.Encode(nil)
		if !bytes.Equal(enc, b[:n.EncodedSize()]) {
			t.Fatalf("decoded node re-encodes to different bytes:\n got %x\nwant %x", enc, b[:n.EncodedSize()])
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
