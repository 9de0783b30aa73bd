package rtree

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
)

// TestShapeGolden pins the tree a seeded write script leaves behind to
// testdata/shape-golden.json, captured before ChooseSubtree was pruned and
// the region started delta-publishing: a 50k bulk load, then 20k ops —
// random inserts, deletes and MOVEs (delete + insert nearby), with a sweep
// in the middle that deletes the 3 000 westmost live objects so leaves
// underflow and condense. The document holds the summed OpStats of every op
// and a SHA-256 over the raw image — version words and stale tail bytes
// included — of every allocated chunk in preorder, so it moves if any op
// picks a different child, writes a different node, or writes a node a
// different number of times. It is compared as bytes; a deliberate change of
// tree behaviour regenerates the file from the "got" document printed here.
func TestShapeGolden(t *testing.T) {
	tree := newTestTree(t, 4096, 0)
	rng := rand.New(rand.NewSource(15))
	type obj struct {
		r   geo.Rect
		ref uint64
	}
	live := make([]obj, 50_000)
	items := make([]Entry, len(live))
	for i := range live {
		live[i] = obj{uniformRect(rng, 1e-3), uint64(i)}
		items[i] = Entry{Rect: live[i].r, Ref: live[i].ref}
	}
	if err := tree.BulkLoad(items, 0); err != nil {
		t.Fatal(err)
	}
	var total OpStats
	nextRef := uint64(len(live))
	insert := func(r geo.Rect, ref uint64) {
		t.Helper()
		st, err := tree.Insert(r, ref)
		if err != nil {
			t.Fatal(err)
		}
		total.add(st)
	}
	remove := func(o obj) {
		t.Helper()
		ok, st, err := tree.Delete(o.r, o.ref)
		if err != nil || !ok {
			t.Fatalf("delete ref %d: ok=%v err=%v", o.ref, ok, err)
		}
		total.add(st)
	}
	step := func() {
		switch p := rng.Float64(); {
		case p < 0.3:
			o := obj{uniformRect(rng, 1e-3), nextRef}
			nextRef++
			insert(o.r, o.ref)
			live = append(live, o)
		case p < 0.45:
			i := rng.Intn(len(live))
			remove(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			i := rng.Intn(len(live))
			o := live[i]
			remove(o)
			o.r = nudge(rng, o.r, 4e-3)
			insert(o.r, o.ref)
			live[i] = o
		}
	}
	for i := 0; i < 8_500; i++ {
		step()
	}
	sort.Slice(live, func(a, b int) bool {
		if live[a].r.MinX != live[b].r.MinX {
			return live[a].r.MinX < live[b].r.MinX
		}
		return live[a].ref < live[b].ref
	})
	for _, o := range live[:3_000] {
		remove(o)
	}
	live = live[3_000:]
	for i := 0; i < 8_500; i++ {
		step()
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	h, masked := sha256.New(), sha256.New()
	raw := make([]byte, tree.reg.ChunkSize())
	var payload []byte
	nodes := 0
	var walk func(id int)
	walk = func(id int) {
		if err := tree.reg.ReadChunkRaw(id, raw); err != nil {
			t.Fatal(err)
		}
		var idb [8]byte
		binary.LittleEndian.PutUint64(idb[:], uint64(id))
		h.Write(idb[:])
		h.Write(raw)
		var err error
		if payload, _, err = region.DecodeChunk(raw, payload); err != nil {
			t.Fatal(err)
		}
		masked.Write(idb[:])
		masked.Write(payload)
		nodes++
		n, err := tree.readNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if !n.IsLeaf() {
			for _, e := range n.Entries {
				walk(int(e.Ref))
			}
		}
	}
	walk(tree.rootChunk)
	if nodes != tree.reg.Allocated() {
		t.Fatalf("walked %d nodes, region has %d allocated chunks", nodes, tree.reg.Allocated())
	}
	got, err := json.MarshalIndent(struct {
		Items, Height, Nodes    int
		NodesRead, NodesWritten int
		ChunksSHA256            string
		PayloadSHA256           string
	}{tree.Len(), tree.Height(), nodes, total.NodesRead, total.NodesWritten,
		hex.EncodeToString(h.Sum(nil)), hex.EncodeToString(masked.Sum(nil))}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile("testdata/shape-golden.json")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("tree shape differs from testdata/shape-golden.json (%v)\ngot:\n%s\nwant:\n%s", err, got, want)
	}
}
