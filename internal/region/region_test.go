package region

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func mustRegion(t *testing.T, nchunks, chunkSize int) *Region {
	t.Helper()
	r, err := New(nchunks, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name             string
		nchunks, chunkSz int
		wantErr          bool
	}{
		{"ok", 4, 256, false},
		{"zeroChunks", 0, 256, true},
		{"zeroSize", 4, 0, true},
		{"notMultiple", 4, 100, true},
		{"single", 1, CacheLine, false},
	}
	for _, tt := range tests {
		_, err := New(tt.nchunks, tt.chunkSz)
		if (err != nil) != tt.wantErr {
			t.Errorf("%s: New(%d,%d) err = %v", tt.name, tt.nchunks, tt.chunkSz, err)
		}
	}
}

func TestGeometry(t *testing.T) {
	r := mustRegion(t, 8, 4096)
	if r.ChunkSize() != 4096 || r.NumChunks() != 8 {
		t.Errorf("geometry %d x %d", r.NumChunks(), r.ChunkSize())
	}
	if r.PayloadSize() != 64*LineData {
		t.Errorf("payload size = %d, want %d", r.PayloadSize(), 64*LineData)
	}
	if r.Size() != 8*4096 {
		t.Errorf("size = %d", r.Size())
	}
}

func TestAllocFree(t *testing.T) {
	r := mustRegion(t, 3, CacheLine)
	var ids []int
	for i := 0; i < 3; i++ {
		id, err := r.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if r.Allocated() != 3 {
		t.Errorf("allocated = %d", r.Allocated())
	}
	if _, err := r.Alloc(); !errors.Is(err, ErrOutOfChunks) {
		t.Errorf("exhausted Alloc err = %v", err)
	}
	if err := r.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := r.Free(ids[1]); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("double free err = %v", err)
	}
	if err := r.Free(99); !errors.Is(err, ErrBadChunk) {
		t.Errorf("bad id free err = %v", err)
	}
	id, err := r.Alloc()
	if err != nil || id != ids[1] {
		t.Errorf("realloc = %d, %v; want %d", id, err, ids[1])
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := mustRegion(t, 4, 256)
	payload := make([]byte, r.PayloadSize())
	rng := rand.New(rand.NewSource(1))
	rng.Read(payload)
	if err := r.WriteChunk(2, payload); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, r.ChunkSize())
	got, ver, err := r.ReadChunk(2, raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 {
		t.Errorf("version = %d, want 2", ver)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload mismatch after round trip")
	}
}

func TestWriteShortPayloadZeroFills(t *testing.T) {
	r := mustRegion(t, 1, 256)
	if err := r.WriteChunk(0, bytes.Repeat([]byte{0xFF}, r.PayloadSize())); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChunk(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, r.ChunkSize())
	got, _, err := r.ReadChunk(0, raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Error("prefix not written")
	}
	for i := 3; i < len(got); i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d = %x, want zero-fill", i, got[i])
		}
	}
}

func TestWriteErrors(t *testing.T) {
	r := mustRegion(t, 2, CacheLine)
	if err := r.WriteChunk(5, nil); !errors.Is(err, ErrBadChunk) {
		t.Errorf("bad id err = %v", err)
	}
	big := make([]byte, r.PayloadSize()+1)
	if err := r.WriteChunk(0, big); !errors.Is(err, ErrPayloadSize) {
		t.Errorf("oversize err = %v", err)
	}
	if _, err := r.BeginWrite(-1, nil); !errors.Is(err, ErrBadChunk) {
		t.Errorf("staged bad id err = %v", err)
	}
	if _, err := r.BeginWrite(0, big); !errors.Is(err, ErrPayloadSize) {
		t.Errorf("staged oversize err = %v", err)
	}
}

func TestReadErrors(t *testing.T) {
	r := mustRegion(t, 2, 256)
	raw := make([]byte, 256)
	if err := r.ReadChunkRaw(9, raw); !errors.Is(err, ErrBadChunk) {
		t.Errorf("bad id err = %v", err)
	}
	if err := r.ReadChunkRaw(0, raw[:100]); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("size mismatch err = %v", err)
	}
	if _, _, err := DecodeChunk(nil, nil); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("empty decode err = %v", err)
	}
	if _, _, err := DecodeChunk(make([]byte, 100), nil); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("ragged decode err = %v", err)
	}
}

func TestVersionsBumpByTwo(t *testing.T) {
	r := mustRegion(t, 1, 128)
	for want := uint64(2); want <= 8; want += 2 {
		if err := r.WriteChunk(0, []byte{byte(want)}); err != nil {
			t.Fatal(err)
		}
		v, err := r.Version(0)
		if err != nil || v != want {
			t.Fatalf("version = %d, %v; want %d", v, err, want)
		}
	}
	if _, err := r.Version(77); !errors.Is(err, ErrBadChunk) {
		t.Errorf("bad id Version err = %v", err)
	}
}

func TestStagedWriteTornThenConsistent(t *testing.T) {
	r := mustRegion(t, 1, 256) // 4 cachelines
	if err := r.WriteChunk(0, []byte("old")); err != nil {
		t.Fatal(err)
	}
	w, err := r.BeginWrite(0, []byte("newpayload"))
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, r.ChunkSize())
	if err := r.ReadChunkRaw(0, raw); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeChunk(raw, nil); !errors.Is(err, ErrTornRead) {
		t.Errorf("mid-write read err = %v, want ErrTornRead", err)
	}
	w.Finish()
	w.Finish() // idempotent
	got, ver, err := r.ReadChunk(0, raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 4 {
		t.Errorf("final version = %d, want 4", ver)
	}
	if !bytes.HasPrefix(got, []byte("newpayload")) {
		t.Error("payload not fully published after Finish")
	}
}

func TestDecodeRejectsOddVersion(t *testing.T) {
	raw := make([]byte, CacheLine)
	raw[0] = 3 // odd version: write in progress
	if _, _, err := DecodeChunk(raw, nil); !errors.Is(err, ErrTornRead) {
		t.Errorf("odd-version decode err = %v", err)
	}
}

func TestDecodeReusesDst(t *testing.T) {
	r := mustRegion(t, 1, 128)
	if err := r.WriteChunk(0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, r.ChunkSize())
	if err := r.ReadChunkRaw(0, raw); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 4096)
	got, _, err := DecodeChunk(raw, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[:1][0] {
		t.Error("DecodeChunk did not reuse dst capacity")
	}
}

// Property: any write/read sequence round-trips payloads exactly.
func TestPropRoundTrip(t *testing.T) {
	r := mustRegion(t, 16, 512)
	rng := rand.New(rand.NewSource(9))
	raw := make([]byte, r.ChunkSize())
	f := func() bool {
		id := rng.Intn(16)
		n := rng.Intn(r.PayloadSize() + 1)
		payload := make([]byte, n)
		rng.Read(payload)
		if err := r.WriteChunk(id, payload); err != nil {
			return false
		}
		got, _, err := r.ReadChunk(id, raw, nil)
		if err != nil {
			return false
		}
		return bytes.Equal(got[:n], payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Under real goroutine concurrency, a reader must never decode a chunk whose
// payload mixes two writes: every successful decode sees one of the written
// generations intact. Run with -race to also prove memory safety.
func TestConcurrentReadersNeverSeeMixedPayload(t *testing.T) {
	r := mustRegion(t, 1, 512)
	const writes = 2000
	gen := func(g byte) []byte {
		return bytes.Repeat([]byte{g}, r.PayloadSize())
	}
	if err := r.WriteChunk(0, gen(0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw := make([]byte, r.ChunkSize())
			var payload []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				payload, _, err = r.ReadChunk(0, raw, payload)
				if errors.Is(err, ErrTornRead) {
					continue
				}
				if err != nil {
					errCh <- err
					return
				}
				first := payload[0]
				for _, b := range payload {
					if b != first {
						errCh <- errors.New("mixed-generation payload decoded as consistent")
						return
					}
				}
			}
		}()
	}
	for g := 1; g <= writes; g++ {
		if err := r.WriteChunk(0, gen(byte(g%251))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// BenchmarkWriteChunk times a 4 KB chunk publish for the three payload
// relations delta-publishing tells apart: every line differs from the
// resident one (changed), a node grows by one 40-byte entry (append: the
// header line and the one or two lines the entry lands in differ), and
// nothing differs (unchanged: one version store per line).
func BenchmarkWriteChunk(b *testing.B) {
	newRegion := func(b *testing.B) *Region {
		r, err := New(64, 4096)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	b.Run("changed", func(b *testing.B) {
		r := newRegion(b)
		var payloads [2][]byte
		for i := range payloads {
			payloads[i] = make([]byte, r.PayloadSize())
			rand.New(rand.NewSource(int64(i))).Read(payloads[i])
		}
		b.SetBytes(int64(r.PayloadSize()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r.WriteChunk(i%64, payloads[i/64%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		r := newRegion(b)
		const header, entry, minEntries, maxEntries = 16, 40, 25, 64
		node := make([]byte, header+maxEntries*entry)
		rand.New(rand.NewSource(1)).Read(node)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			count := minEntries + i/64%(maxEntries-minEntries+1)
			node[4] = byte(count)
			if err := r.WriteChunkPrefix(i%64, node[:header+count*entry]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unchanged", func(b *testing.B) {
		r := newRegion(b)
		payload := make([]byte, r.PayloadSize())
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r.WriteChunk(i%64, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkReadChunk(b *testing.B) {
	r, err := New(64, 4096)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, r.PayloadSize())
	for i := 0; i < 64; i++ {
		if err := r.WriteChunk(i, payload); err != nil {
			b.Fatal(err)
		}
	}
	raw := make([]byte, r.ChunkSize())
	var out []byte
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, _, err = r.ReadChunk(i%64, raw, out)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestWriteChunkPrefix(t *testing.T) {
	r := mustRegion(t, 1, 256)
	full := bytes.Repeat([]byte{0xEE}, r.PayloadSize())
	if err := r.WriteChunk(0, full); err != nil {
		t.Fatal(err)
	}
	// Prefix write covers only the first line's payload; the tail keeps
	// stale bytes but all versions must agree.
	if err := r.WriteChunkPrefix(0, bytes.Repeat([]byte{0x11}, LineData)); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, r.ChunkSize())
	got, ver, err := r.ReadChunk(0, raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 4 {
		t.Errorf("version = %d, want 4", ver)
	}
	for i := 0; i < LineData; i++ {
		if got[i] != 0x11 {
			t.Fatalf("prefix byte %d = %x", i, got[i])
		}
	}
	for i := LineData; i < len(got); i++ {
		if got[i] != 0xEE {
			t.Fatalf("stale tail byte %d = %x, want 0xEE", i, got[i])
		}
	}
	if err := r.WriteChunkPrefix(7, nil); !errors.Is(err, ErrBadChunk) {
		t.Errorf("bad id err = %v", err)
	}
	if err := r.WriteChunkPrefix(0, make([]byte, r.PayloadSize()+1)); !errors.Is(err, ErrPayloadSize) {
		t.Errorf("oversize err = %v", err)
	}
}

// BenchmarkReadChunkRaw times the copy half of ReadChunk: every line read
// under its seqlock into the raw image.
func BenchmarkReadChunkRaw(b *testing.B) {
	r, err := New(64, 4096)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, r.PayloadSize())
	for i := 0; i < 64; i++ {
		if err := r.WriteChunk(i, payload); err != nil {
			b.Fatal(err)
		}
	}
	raw := make([]byte, r.ChunkSize())
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.ReadChunkRaw(i%64, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeChunk times the validate half of ReadChunk: the version
// check and the payload gathered out of a raw image.
func BenchmarkDecodeChunk(b *testing.B) {
	r, err := New(1, 4096)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, r.PayloadSize())
	rand.New(rand.NewSource(1)).Read(payload)
	if err := r.WriteChunk(0, payload); err != nil {
		b.Fatal(err)
	}
	raw := make([]byte, r.ChunkSize())
	if err := r.ReadChunkRaw(0, raw); err != nil {
		b.Fatal(err)
	}
	out := make([]byte, 0, len(payload))
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeChunk(raw, out); err != nil {
			b.Fatal(err)
		}
	}
}
