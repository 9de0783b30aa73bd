package proto

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/adaptive"
	"github.com/catfish-db/catfish/internal/btree"
	"github.com/catfish-db/catfish/internal/nodecache"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// keyRig is a B+-tree served through the fake transport — the walk's second
// index, which a client core takes when the server announces it — answered
// against the tree's own Get and Range.
type keyRig struct {
	tree  *btree.Tree
	ft    *fakeTransport
	cache *nodecache.Cache
	o     Ops[*fakeTransport]
	span  uint64 // preloaded keys are the even keys below span
}

// newKeyRig loads keys even keys k (value k/2) in random order into a
// fan-out-8 tree, several levels deep.
func newKeyRig(t *testing.T, keys int, cfg OpsConfig, cacheCap int) *keyRig {
	t.Helper()
	reg, err := region.New(1<<12, 512)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := btree.New(reg, btree.Config{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range rand.New(rand.NewSource(12)).Perm(keys) {
		if err := tree.Insert(uint64(k)*2, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	r := &keyRig{tree: tree, span: uint64(keys) * 2,
		ft:    &fakeTransport{fakeReads: fakeReads{reg: reg, reads: map[int]int{}}},
		cache: nodecache.New(cacheCap, time.Millisecond, reg.ChunkSize(), reg.VersionsSize())}
	cfg.Forced = MethodOffload
	cfg.Switch = adaptive.Config{Inv: time.Millisecond}
	cfg.Tree = Tree{RootChunk: tree.RootChunk(), NumChunks: reg.NumChunks(), MaxEntries: tree.MaxEntries(),
		Kind: wire.IndexBTree}
	cfg.Cache = r.cache
	r.o = Bind(NewCore(cfg), r.ft)
	if r.o.walk != nil || r.o.keyWalk == nil {
		t.Fatal("a B+-tree server's client took the R-tree walk")
	}
	return r
}

// scan reads [from, to] by the offloaded walk.
func (r *keyRig) scan(from, to uint64) ([]btree.Entry, error) {
	items, m, err := r.o.Search(KeyRange(from, to))
	if err == nil && m != MethodOffload {
		err = fmt.Errorf("scan ran %v", m)
	}
	return entries(items), err
}

// entries decodes items through the key codec.
func entries(items []wire.Item) []btree.Entry {
	var out []btree.Entry
	for _, it := range items {
		from, to := KeyBounds(it.Rect)
		if from != to {
			panic("a pair's item carries an interval")
		}
		out = append(out, btree.Entry{Key: from, Val: it.Ref})
	}
	return out
}

// check scans [from, to] and requires the tree's own answer — and, for a
// point, its Get — and a quiet walk.
func (r *keyRig) check(t *testing.T, from, to uint64) {
	t.Helper()
	got, err := r.scan(from, to)
	if err != nil {
		t.Fatalf("scan [%d, %d]: %v", from, to, err)
	}
	r.same(t, from, to, got)
	r.checkQuiet(t)
}

// same requires got to be the tree's answer to [from, to].
func (r *keyRig) same(t *testing.T, from, to uint64, got []btree.Entry) {
	t.Helper()
	var want []btree.Entry
	if err := r.tree.Range(from, to, func(k, v uint64) bool {
		want = append(want, btree.Entry{Key: k, Val: v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("scan [%d, %d]: %d pairs, the tree holds %d", from, to, len(got), len(want))
	}
	if from == to {
		if v, err := r.tree.Get(from); (err == nil) != (len(got) == 1) || (err == nil && v != got[0].Val) {
			t.Fatalf("get %d: walk %v, tree (%d, %v)", from, got, v, err)
		}
	}
}

func (r *keyRig) fake() *fakeTransport    { return r.ft }
func (r *keyRig) nodes() *nodecache.Cache { return r.cache }
func (r *keyRig) rootChunk() int          { return r.tree.RootChunk() }
func (r *keyRig) region() *region.Region  { return r.tree.Region() }

func (r *keyRig) stats() telemetry.ClientSnapshot { return r.o.Stats() }

func (r *keyRig) checkQuiet(t *testing.T) {
	t.Helper()
	quiet(t, r.ft, r.o.keyWalk)
}

func (r *keyRig) runWhole(t *testing.T) error {
	t.Helper()
	got, err := r.scan(0, ^uint64(0))
	if err == nil {
		r.same(t, 0, ^uint64(0), got)
	}
	return err
}

func (r *keyRig) checkWhole(t *testing.T) {
	t.Helper()
	if err := r.runWhole(t); err != nil {
		t.Fatal(err)
	}
	r.checkQuiet(t)
}

// checkRandom scans a random range — a point get one time in three, a
// twentieth of the keys when wide — that may start or end outside the keys.
func (r *keyRig) checkRandom(t *testing.T, rng *rand.Rand, wide bool) {
	from := uint64(rng.Int63n(int64(r.span + 40)))
	var width uint64
	switch {
	case wide:
		width = r.span / 20
	case rng.Intn(3) > 0:
		width = uint64(rng.Intn(40))
	}
	r.check(t, from, from+width)
}

func (r *keyRig) grow(t *testing.T, rng *rand.Rand) {
	k := uint64(rng.Int63n(int64(r.span)))*2 + 1 // odd: never preloaded
	if err := r.tree.Insert(k, k); err != nil && !errors.Is(err, btree.ErrExists) {
		t.Fatal(err)
	}
}

// node decodes chunk id straight from the region.
func (r *keyRig) node(t *testing.T, id int) *btree.Node {
	t.Helper()
	reg := r.tree.Region()
	payload, _, err := reg.ReadChunk(id, make([]byte, reg.ChunkSize()), nil)
	if err != nil {
		t.Fatal(err)
	}
	var n btree.Node
	if err := btree.DecodeNode(payload, &n, 0); err != nil {
		t.Fatal(err)
	}
	return &n
}

// victim is the i-th leaf of the chain, which the whole scan reads through
// right-sibling refs from the leftmost leaf on.
func (r *keyRig) victim(t *testing.T, i int) int {
	t.Helper()
	id := r.tree.RootChunk()
	for n := r.node(t, id); !n.IsLeaf(); n = r.node(t, id) {
		id = int(n.Entries[0].Val)
	}
	for ; i > 0; i-- {
		id = r.node(t, id).Next
	}
	return id
}

// TestOffloadChainSelfLoop: a leaf whose right sibling is itself, under a
// root whose separator sends a scan past all its keys, loops the chain. The
// walk must end in ErrGaveUp within its budgets: maxMoveRight moves per
// attempt, MaxRestarts restarts.
func TestOffloadChainSelfLoop(t *testing.T) {
	reg, err := region.New(8, 512)
	if err != nil {
		t.Fatal(err)
	}
	write := func(id int, n *btree.Node) {
		if err := reg.WriteChunk(id, n.Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	const root, loop = 0, 1
	write(root, &btree.Node{Level: 1, Next: -1, Entries: []btree.Entry{{Key: 0, Val: loop}}})
	write(loop, &btree.Node{Level: 0, Next: loop, Entries: []btree.Entry{{Key: 1, Val: 1}, {Key: 2, Val: 2}}})
	for _, multi := range []bool{true, false} {
		ft := &fakeTransport{fakeReads: fakeReads{reg: reg, reads: map[int]int{}}}
		var ctr telemetry.ClientMetrics
		w := newKeyWalk(OpsConfig{MultiIssue: multi, Tree: Tree{RootChunk: root, NumChunks: 8, MaxEntries: 8}}, &ctr)
		for _, q := range [][2]uint64{{5, 5}, {5, 9}, {0, 9}} {
			before := ctr.NodesFetched.Load()
			if got, err := Offload(w, ft, KeyRange(q[0], q[1])); !errors.Is(err, ErrGaveUp) {
				t.Fatalf("multi-issue %v, scan %v over a looping chain: %v, %v; want ErrGaveUp", multi, q, got, err)
			}
			// Each of the 9 attempts reads the root and, at most, the
			// looping leaf once plus once per move right.
			if reads := ctr.NodesFetched.Load() - before; reads > 9*(2+maxMoveRight) {
				t.Errorf("multi-issue %v, scan %v: %d reads, past the budgets", multi, q, reads)
			}
			quiet(t, ft, w)
		}
	}
}
