package region

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// refWriteLine is writeLine as it stood before delta publishing: every line
// goes odd, has all seven payload words re-stored byte by byte, and goes
// even. It is the oracle for what a write must leave in the region.
func refWriteLine(c []uint64, l int, newVersion uint64, payload []byte) {
	base := l * wordsPerLine
	old := atomic.LoadUint64(&c[base])
	atomic.StoreUint64(&c[base], old|1)
	start := l * LineData
	for w := 0; w < payloadWords; w++ {
		var word uint64
		off := start + w*8
		for b := 0; b < 8; b++ {
			if off+b < len(payload) {
				word |= uint64(payload[off+b]) << (8 * b)
			}
		}
		atomic.StoreUint64(&c[base+1+w], word)
	}
	atomic.StoreUint64(&c[base], newVersion)
}

// refWrite publishes lines [from, to) of chunk id with refWriteLine and
// stamps lines [to, stampTo) with the version alone, which is all that
// WriteChunk, WriteChunkPrefix and the two halves of a staged write differ in.
// It commits the chunk's slab first, as every write path does: stamping
// through the read-side view of an uncommitted chunk would write the
// region's shared zero chunk.
func refWrite(r *Region, id int, v uint64, payload []byte, from, to, stampTo int) {
	c := r.writable(id)
	for l := from; l < to; l++ {
		refWriteLine(c, l, v, payload)
	}
	for l := to; l < stampTo; l++ {
		atomic.StoreUint64(&c[l*wordsPerLine], v)
	}
}

// TestDeltaPublishMatchesReference: random sequences of WriteChunk,
// WriteChunkPrefix and BeginWrite+Finish, whose payloads share anything from
// no line to every line with what the chunk holds, leave raw chunk images —
// version words included, mid-stage included — byte-identical to the
// reference's.
func TestDeltaPublishMatchesReference(t *testing.T) {
	const chunks, chunkSize = 3, 1024
	got, ref := mustRegion(t, chunks, chunkSize), mustRegion(t, chunks, chunkSize)
	rng := rand.New(rand.NewSource(15))
	lines := got.lines
	raw, other := make([]byte, chunkSize), make([]byte, chunkSize)
	same := func(step int, what string) {
		t.Helper()
		for id := 0; id < chunks; id++ {
			if err := got.ReadChunkRaw(id, raw); err != nil {
				t.Fatal(err)
			}
			if err := ref.ReadChunkRaw(id, other); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, other) {
				t.Fatalf("step %d (%s): chunk %d image differs from the reference", step, what, id)
			}
		}
	}
	for step := 0; step < 3000; step++ {
		id := rng.Intn(chunks)
		// Next payload: a prefix of what the chunk holds — any length, often
		// ending mid-line — with no, a few, or all of its lines rewritten.
		resident, _, err := ref.ReadChunk(id, raw, nil)
		if err != nil {
			t.Fatal(err)
		}
		size := rng.Intn(len(resident) + 1)
		switch rng.Intn(8) {
		case 0:
			size = 0
		case 1:
			size = len(resident)
		}
		payload := resident[:size]
		switch k := rng.Intn(lines + 2); k {
		case 0:
		case lines + 1:
			rng.Read(payload)
		default:
			for ; k > 0; k-- {
				l := rng.Intn(lines)
				if lo, hi := min(l*LineData, size), min((l+1)*LineData, size); lo < hi {
					payload[lo+rng.Intn(hi-lo)] ^= byte(1 + rng.Intn(255))
				}
			}
		}
		covered := (size + LineData - 1) / LineData
		v := nextVersion(ref.chunk(id))
		switch rng.Intn(3) {
		case 0:
			if err := got.WriteChunk(id, payload); err != nil {
				t.Fatal(err)
			}
			refWrite(ref, id, v, payload, 0, lines, lines)
			same(step, "WriteChunk")
		case 1:
			if err := got.WriteChunkPrefix(id, payload); err != nil {
				t.Fatal(err)
			}
			refWrite(ref, id, v, payload, 0, covered, lines)
			same(step, "WriteChunkPrefix")
		case 2:
			w, err := got.BeginWrite(id, payload)
			if err != nil {
				t.Fatal(err)
			}
			half := (lines + 1) / 2
			refWrite(ref, id, v, payload, 0, half, half)
			same(step, "BeginWrite")
			w.Finish()
			refWrite(ref, id, v, payload, half, lines, lines)
			same(step, "Finish")
		}
	}
}

// deltaGenerations builds node-shaped payloads — 16-byte header (entry count
// at [4:8), generation number at [8:16)), then 40-byte entries — in which
// generation g differs from g−1 by one appended entry or one rewritten
// entry, i.e. in the header line plus one or two more, the way tree writes
// do. The count walks up and down so prefixes also shrink.
func deltaGenerations(rng *rand.Rand, n int) [][]byte {
	const header, entry, minCount, maxCount = 16, 40, 8, 64
	cur := make([]byte, header+maxCount*entry)
	rng.Read(cur[header:])
	count, grow := minCount, true
	gens := make([][]byte, n)
	for g := range gens {
		switch {
		case g%2 == 1: // change one MBR
			e := rng.Intn(count)
			rng.Read(cur[header+e*entry : header+e*entry+32])
		case grow:
			count++
			rng.Read(cur[header+(count-1)*entry : header+count*entry])
			grow = count < maxCount
		default:
			count--
			grow = count <= minCount
		}
		binary.LittleEndian.PutUint32(cur[4:], uint32(count))
		binary.LittleEndian.PutUint64(cur[8:], uint64(g))
		gens[g] = append([]byte(nil), cur[:header+count*entry]...)
	}
	return gens
}

// TestDeltaPublishConcurrentReaders is the torn-read hammer for writes that
// change only a few lines of a chunk, so most lines are published by a bare
// version bump: under real goroutine concurrency every read that passes the
// version checks must equal, byte for byte, the one generation its header
// names. The writer cycles all three write paths and yields now and then —
// inside a staged write's window and between two writes — so readers see
// both torn and clean reads on any GOMAXPROCS. Run with -race.
func TestDeltaPublishConcurrentReaders(t *testing.T) {
	r := mustRegion(t, 1, 4096)
	gens := deltaGenerations(rand.New(rand.NewSource(15)), 2000)
	if err := r.WriteChunkPrefix(0, gens[0]); err != nil {
		t.Fatal(err)
	}
	var torn, clean atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
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
					torn.Add(1)
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				g := binary.LittleEndian.Uint64(payload[8:])
				if g >= uint64(len(gens)) || !bytes.Equal(payload[:len(gens[g])], gens[g]) {
					t.Errorf("read accepted as consistent is not generation %d", g)
					return
				}
				clean.Add(1)
			}
		}()
	}
	for g := 1; g < len(gens) || torn.Load() == 0 || clean.Load() == 0; g++ {
		if g >= 10*len(gens) {
			t.Errorf("after %d writes readers saw %d torn and %d clean reads, want both", g, torn.Load(), clean.Load())
			break
		}
		var err error
		switch payload := gens[g%len(gens)]; {
		case g%64 == 0:
			var w *StagedWrite
			if w, err = r.BeginWrite(0, payload); err == nil {
				runtime.Gosched()
				w.Finish()
			}
		case g%64 == 32:
			err = r.WriteChunk(0, payload)
			runtime.Gosched()
		case g%4 == 1:
			err = r.WriteChunk(0, payload)
		default:
			err = r.WriteChunkPrefix(0, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d torn, %d clean reads", torn.Load(), clean.Load())
}
