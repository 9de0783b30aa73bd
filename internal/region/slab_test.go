package region

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// committedSlabs counts the slabs whose memory has been committed.
func (r *Region) committedSlabs() int {
	n := 0
	for i := range r.slabs {
		if r.slabs[i].Load() != nil {
			n++
		}
	}
	return n
}

// slabChunks is the number of chunks one slab of r holds.
func (r *Region) slabChunks() int { return 1 << r.slabShift }

// TestSlabUncommittedReadsAsNeverWritten: a chunk whose slab nothing has
// committed reads — raw image, version vector, version, validated read —
// exactly as a never-written chunk of a flat region does: all zeros at
// version 0. Reading it commits nothing.
func TestSlabUncommittedReadsAsNeverWritten(t *testing.T) {
	r := mustRegion(t, 600, 4096)
	if _, err := r.Alloc(); err != nil { // commits slab 0: chunk 0 is committed, never written
		t.Fatal(err)
	}
	far := r.NumChunks() - 1 // in the last slab, uncommitted
	if r.committedSlabs() != 1 {
		t.Fatalf("%d slabs committed after one Alloc, want 1", r.committedSlabs())
	}
	zeros := make([]byte, r.ChunkSize())
	for _, id := range []int{0, far} {
		raw := make([]byte, r.ChunkSize())
		if err := r.ReadChunkRaw(id, raw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, zeros) {
			t.Fatalf("chunk %d: raw image is not all zeros", id)
		}
		versions := make([]byte, r.VersionsSize())
		if err := r.ReadVersions(id, versions); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(versions, zeros[:len(versions)]) {
			t.Fatalf("chunk %d: version vector is not all zeros", id)
		}
		if v, err := r.Version(id); err != nil || v != 0 {
			t.Fatalf("chunk %d: Version %d, %v; want 0", id, v, err)
		}
		payload, v, err := r.ReadChunk(id, raw, nil)
		if err != nil || v != 0 || !bytes.Equal(payload, zeros[:r.PayloadSize()]) {
			t.Fatalf("chunk %d: ReadChunk version %d, %v; want zeros at 0", id, v, err)
		}
		if got := nextVersion(r.chunk(id)); got != 2 {
			t.Fatalf("chunk %d: next version %d, want 2", id, got)
		}
	}
	if r.committedSlabs() != 1 {
		t.Fatalf("reads committed slabs: %d, want 1", r.committedSlabs())
	}
}

// TestSlabBoundaryIDs: the last chunk of a slab, the first of the next and
// the region's last chunk — in a short last slab, since the chunk count is
// not a multiple of the slab — each hold their own write without touching
// a neighbour, and ids past the end are still refused.
func TestSlabBoundaryIDs(t *testing.T) {
	const chunkSize = 4096
	per := mustRegion(t, 1, chunkSize).slabChunks()
	r := mustRegion(t, 2*per+37, chunkSize)
	ids := []int{per - 1, per, r.NumChunks() - 1}
	for i, id := range ids {
		if err := r.WriteChunk(id, bytes.Repeat([]byte{byte(i + 1)}, r.PayloadSize())); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(*r.slabs[2].Load()); got != 37*chunkSize/8 {
		t.Fatalf("last slab holds %d words, want %d", got, 37*chunkSize/8)
	}
	raw := make([]byte, chunkSize)
	for i, id := range ids {
		payload, v, err := r.ReadChunk(id, raw, nil)
		if err != nil || v != 2 || !bytes.Equal(payload, bytes.Repeat([]byte{byte(i + 1)}, r.PayloadSize())) {
			t.Fatalf("chunk %d: version %d, %v, or wrong bytes", id, v, err)
		}
	}
	for _, id := range []int{per - 2, per + 1, r.NumChunks() - 2} {
		if v, err := r.Version(id); err != nil || v != 0 {
			t.Fatalf("neighbour %d: version %d, %v; want untouched", id, v, err)
		}
	}
	for _, err := range []error{
		r.WriteChunk(r.NumChunks(), nil),
		r.ReadChunkRaw(r.NumChunks(), raw),
		r.ReadChunkRaw(-1, raw),
	} {
		if !errors.Is(err, ErrBadChunk) {
			t.Fatalf("out-of-range id: err %v, want ErrBadChunk", err)
		}
	}
}

// TestSlabChunkLargerThanSlab: a chunk larger than slabBytes gets a slab of
// its own, committed only when that chunk is written.
func TestSlabChunkLargerThanSlab(t *testing.T) {
	const chunkSize = slabBytes + CacheLine
	r := mustRegion(t, 3, chunkSize)
	if r.slabChunks() != 1 || len(r.slabs) != 3 {
		t.Fatalf("%d chunks per slab, %d slabs; want 1, 3", r.slabChunks(), len(r.slabs))
	}
	payload := make([]byte, r.PayloadSize())
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := r.WriteChunkPrefix(1, payload); err != nil {
		t.Fatal(err)
	}
	if r.committedSlabs() != 1 {
		t.Fatalf("%d slabs committed, want 1", r.committedSlabs())
	}
	raw := make([]byte, chunkSize)
	got, v, err := r.ReadChunk(1, raw, nil)
	if err != nil || v != 2 || !bytes.Equal(got, payload) {
		t.Fatalf("version %d, %v, or wrong bytes", v, err)
	}
	if got, _, err := r.ReadChunk(2, raw, nil); err != nil || !bytes.Equal(got, make([]byte, len(payload))) {
		t.Fatalf("uncommitted neighbour: %v or non-zero bytes", err)
	}
}

// TestSlabCommitCountAfterAllocs: after SortFreeList, n Allocs hand out
// chunks 0..n-1 and commit exactly ⌈n / slab⌉ slabs — the memory a bulk
// load of n nodes holds — and freeing them releases none.
func TestSlabCommitCountAfterAllocs(t *testing.T) {
	const chunkSize = 4096
	per := mustRegion(t, 1, chunkSize).slabChunks()
	for _, n := range []int{0, 1, per - 1, per, per + 1, 3*per + 5} {
		r := mustRegion(t, 4*per, chunkSize)
		r.SortFreeList()
		ids := make([]int, n)
		for i := range ids {
			id, err := r.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		if want := (n + per - 1) / per; r.committedSlabs() != want {
			t.Fatalf("%d allocs: %d slabs committed, want %d", n, r.committedSlabs(), want)
		}
		for _, id := range ids {
			if err := r.Free(id); err != nil {
				t.Fatal(err)
			}
		}
		if want := (n + per - 1) / per; r.committedSlabs() != want {
			t.Fatalf("%d frees: %d slabs committed, want %d", n, r.committedSlabs(), want)
		}
	}
}

// slabImage is generation g of chunk id's payload: the id and generation in
// the first line, then a fill derived from both across every line, so an
// image that mixes two writes — or a write and the zeros before it — is
// told apart from either.
func slabImage(payload []byte, id int, g uint64) {
	binary.LittleEndian.PutUint64(payload, uint64(id))
	binary.LittleEndian.PutUint64(payload[8:], g)
	for i := 16; i < len(payload); i++ {
		payload[i] = byte(uint64(id)*31 + g*7 + uint64(i))
	}
}

// TestSlabCommitConcurrentWriters is the commit-race hammer: in each round,
// writers race to commit one fresh slab by writing distinct chunks in it,
// each several times, while raw readers read those chunks. No write may be
// lost to a losing CompareAndSwap — every chunk ends at its writer's last
// generation — and every read that passes the version checks is either the
// never-written zeros at version 0 or exactly one generation of its chunk.
// Run with -race.
func TestSlabCommitConcurrentWriters(t *testing.T) {
	const writers, gens, chunkSize = 4, 8, 1024
	per := mustRegion(t, 1, chunkSize).slabChunks()
	const rounds = 16
	r := mustRegion(t, rounds*per, chunkSize)
	var accepted atomic.Int64
	for round := 0; round < rounds; round++ {
		base := round * per
		ids := make([]int, writers)
		for w := range ids {
			ids[w] = base + w*(per/writers)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for i := 0; i < 2; i++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				raw := make([]byte, chunkSize)
				var payload []byte
				want := make([]byte, r.PayloadSize())
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					id := ids[n%len(ids)]
					var err error
					var v uint64
					payload, v, err = r.ReadChunk(id, raw, payload)
					if errors.Is(err, ErrTornRead) {
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					if v == 0 {
						clear(want)
					} else {
						slabImage(want, id, binary.LittleEndian.Uint64(payload[8:]))
					}
					if !bytes.Equal(payload, want) {
						t.Errorf("chunk %d: accepted image at version %d is no single write", id, v)
						return
					}
					accepted.Add(1)
				}
			}()
		}
		for _, id := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				payload := make([]byte, r.PayloadSize())
				<-start
				for g := uint64(1); g <= gens; g++ {
					slabImage(payload, id, g)
					if err := r.WriteChunk(id, payload); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		close(stop)
		readers.Wait()
		raw := make([]byte, chunkSize)
		want := make([]byte, r.PayloadSize())
		for _, id := range ids {
			payload, v, err := r.ReadChunk(id, raw, nil)
			slabImage(want, id, gens)
			if err != nil || v != 2*gens || !bytes.Equal(payload, want) {
				t.Fatalf("round %d chunk %d: version %d, %v; a write was lost", round, id, v, err)
			}
		}
	}
	if r.committedSlabs() != rounds {
		t.Fatalf("%d slabs committed, want %d", r.committedSlabs(), rounds)
	}
	t.Logf("%d reads accepted", accepted.Load())
}
