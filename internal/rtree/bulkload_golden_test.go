package rtree_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/scenario"
	"github.com/catfish-db/catfish/internal/workload"
)

// TestBulkLoadGolden pins the image BulkLoad leaves in the region to
// testdata/bulkload-golden.json: for each case, the height, the node count
// and a SHA-256 over every chunk's raw image — version words included — in
// preorder, the recipe TestShapeGolden uses. The cases are the datasets the
// benchmark and the sim stand up: uniform rectangles at the default and at
// full fill, a small fan-out, and the moving-fleet seed. A change to the
// tiling that picks a different permutation of these distinct-key inputs, or
// a different chunk layout, moves the file; it is compared as bytes.
func TestBulkLoadGolden(t *testing.T) {
	uniform := workload.UniformRects(100_000, 1e-4, 1)
	fleet := scenario.NewMovingObjects(rand.New(rand.NewSource(7920)), scenario.MovingConfig{N: 200_000}).Seed()
	cases := []struct {
		name      string
		items     []rtree.Entry
		fill      float64
		chunks    int
		chunkSize int
		cfg       rtree.Config
	}{
		{"uniform-100k-fill-default", uniform, 0, 8192, 4096, rtree.Config{}},
		{"uniform-100k-fill-1", uniform, 1, 8192, 4096, rtree.Config{}},
		{"uniform-20k-M8", workload.UniformRects(20_000, 1e-3, 2), 0, 8192, 512, rtree.Config{MaxEntries: 8}},
		// The benchmark's moving-fleet set-up at seed 1 (datasetSeed(1) = 7920).
		{"moving-fleet-200k", fleet, 0, 8192, 4096, rtree.Config{}},
	}
	type result struct {
		Name          string
		Items, Height int
		Nodes         int
		ChunksSHA256  string
	}
	var results []result
	for _, c := range cases {
		reg, err := region.New(c.chunks, c.chunkSize)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := rtree.New(reg, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.BulkLoad(c.items, c.fill); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		nodes, sum := hashPreorder(t, tree)
		if nodes != reg.Allocated() {
			t.Fatalf("%s: walked %d nodes, region has %d allocated chunks", c.name, nodes, reg.Allocated())
		}
		results = append(results, result{c.name, tree.Len(), tree.Height(), nodes, sum})
	}
	got, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile("testdata/bulkload-golden.json")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("bulk-loaded images differ from testdata/bulkload-golden.json (%v)\ngot:\n%s\nwant:\n%s", err, got, want)
	}
}

// hashPreorder walks tree from its root and returns the node count and the
// SHA-256 over each chunk's id and raw image, in preorder.
func hashPreorder(t *testing.T, tree *rtree.Tree) (int, string) {
	t.Helper()
	reg := tree.Region()
	h := sha256.New()
	raw := make([]byte, reg.ChunkSize())
	var payload []byte
	var node rtree.Node
	nodes := 0
	var walk func(id int)
	walk = func(id int) {
		if err := reg.ReadChunkRaw(id, raw); err != nil {
			t.Fatal(err)
		}
		var idb [8]byte
		binary.LittleEndian.PutUint64(idb[:], uint64(id))
		h.Write(idb[:])
		h.Write(raw)
		nodes++
		var err error
		if payload, _, err = region.DecodeChunk(raw, payload); err != nil {
			t.Fatal(err)
		}
		if err := rtree.DecodeNode(payload, &node, 0); err != nil {
			t.Fatal(err)
		}
		if node.IsLeaf() {
			return
		}
		children := make([]int, len(node.Entries))
		for i, e := range node.Entries {
			children[i] = int(e.Ref)
		}
		for _, c := range children {
			walk(c)
		}
	}
	walk(tree.RootChunk())
	return nodes, hex.EncodeToString(h.Sum(nil))
}
