// Package region implements the server's RDMA-registered memory region.
//
// Following the paper's memory-management design (§III-B), the region is
// registered with the NIC once and divided into fixed-size chunks — one
// chunk per R-tree node. A client addresses any node as (region base, chunk
// ID × chunk size) with a one-sided RDMA Read.
//
// The address space is fixed at New; the memory behind it is not. The
// chunks are grouped into slabs of about a MiB (slabBytes, at least one
// chunk), and a slab's memory is committed the first time a chunk in it is
// allocated or written — the Go analogue of an on-demand-paging
// registration. A slab is never released: freeing every chunk in it leaves
// it committed, so a committed chunk's words never move. Until then its
// chunks read as zeros at version 0, exactly what a committed chunk that
// was never written holds, so readers cannot tell the difference. Reads
// take no lock: the slab table is a slice of atomic pointers, and a writer
// installs a slab with one CompareAndSwap (two writers racing to commit the
// same slab both write into the one that won), so a reader sees either no
// slab or a complete one whose words carry the seqlock versions below.
//
// Concurrency between server-side writers (CPU) and client-side readers
// (RDMA Read, which bypasses the server CPU entirely) uses the FaRM-style
// version-number scheme the paper adopts: every 64-byte cacheline carries an
// 8-byte version in its first word, leaving 56 bytes of payload. A writer
// bumps the version of every cacheline it rewrites; a reader accepts a chunk
// only when all cacheline versions agree. On hardware this is sound because
// both RDMA Reads and CPU writes are cacheline-atomic. Go cannot express
// cacheline atomicity, so this package backs each chunk with []uint64 words
// accessed via sync/atomic and gives each cacheline seqlock semantics
// (odd version = write in progress); the observable property — a reader
// either sees a fully consistent chunk or detects the tear and retries — is
// identical, and it holds both in the single-threaded simulation and under
// real goroutine concurrency in the rpcnet mode.
//
// To exercise the retry path deterministically in simulation, writers can
// stage a write across a virtual-time window (BeginWrite/Finish): the first
// half of the cachelines is published at the start of the window and the
// rest at the end, so an RDMA Read landing inside the window observes
// genuinely mixed versions.
package region

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

const (
	// CacheLine is the coherence unit: RDMA Reads and CPU writes are atomic
	// at this granularity on real hardware.
	CacheLine = 64
	// VersionSize is the per-cacheline version word prepended to payload.
	VersionSize = 8
	// LineData is the payload capacity of one cacheline.
	LineData = CacheLine - VersionSize

	wordsPerLine   = CacheLine / 8
	payloadWords   = wordsPerLine - 1
	stableAttempts = 1 << 16

	// slabBytes is the commit unit: a slab holds the largest power-of-two
	// number of chunks that fits, and never fewer than one.
	slabBytes = 1 << 20
)

// Errors returned by region operations.
var (
	ErrTornRead     = errors.New("region: torn read: cacheline versions differ")
	ErrBadChunk     = errors.New("region: chunk id out of range")
	ErrPayloadSize  = errors.New("region: payload exceeds chunk capacity")
	ErrOutOfChunks  = errors.New("region: no free chunks")
	ErrDoubleFree   = errors.New("region: chunk already free")
	ErrSizeMismatch = errors.New("region: buffer size mismatch")
)

// Region is a registered memory region divided into equally sized chunks.
// Raw reads may run concurrently with writes from other goroutines (readers
// validate versions and retry), but writers to the same chunk must be
// externally serialized — exactly the guarantee the server's tree latch
// provides. The chunk allocator must likewise be serialized by the caller.
type Region struct {
	slabs      []atomic.Pointer[[]uint64] // nil until the slab's first Alloc or write
	slabShift  uint                       // log2 of chunks per slab
	zero       []uint64                   // what an uncommitted chunk reads as; never written
	chunkWords int
	chunkSize  int
	lines      int // cachelines per chunk
	nchunks    int

	freeHead int32
	freeNext []int32
	allocs   int
}

// New returns a region with nchunks chunks of chunkSize bytes each.
// chunkSize must be a positive multiple of CacheLine.
func New(nchunks, chunkSize int) (*Region, error) {
	if nchunks <= 0 || chunkSize <= 0 || chunkSize%CacheLine != 0 {
		return nil, fmt.Errorf("region: invalid geometry %d x %d", nchunks, chunkSize)
	}
	r := &Region{
		zero:       make([]uint64, chunkSize/8),
		chunkWords: chunkSize / 8,
		chunkSize:  chunkSize,
		lines:      chunkSize / CacheLine,
		nchunks:    nchunks,
		freeNext:   make([]int32, nchunks),
	}
	for chunkSize<<(r.slabShift+1) <= slabBytes {
		r.slabShift++
	}
	r.slabs = make([]atomic.Pointer[[]uint64], (nchunks-1)>>r.slabShift+1)
	for i := 0; i < nchunks-1; i++ {
		r.freeNext[i] = int32(i + 1)
	}
	r.freeNext[nchunks-1] = -1
	r.freeHead = 0
	return r, nil
}

// ChunkSize returns the size in bytes of one chunk (versions included).
func (r *Region) ChunkSize() int { return r.chunkSize }

// NumChunks returns the number of chunks in the region.
func (r *Region) NumChunks() int { return r.nchunks }

// PayloadSize returns the usable payload bytes per chunk.
func (r *Region) PayloadSize() int { return r.lines * LineData }

// Allocated returns the number of currently allocated chunks.
func (r *Region) Allocated() int { return r.allocs }

// Size returns the total registered bytes.
func (r *Region) Size() int { return r.nchunks * r.chunkSize }

// Alloc takes a chunk from the free list and commits its slab.
func (r *Region) Alloc() (int, error) {
	if r.freeHead < 0 {
		return 0, ErrOutOfChunks
	}
	id := int(r.freeHead)
	r.writable(id)
	r.freeHead = r.freeNext[id]
	r.freeNext[id] = -2 // allocated marker
	r.allocs++
	return id, nil
}

// Free returns a chunk to the free list.
func (r *Region) Free(id int) error {
	if id < 0 || id >= r.nchunks {
		return ErrBadChunk
	}
	if r.freeNext[id] != -2 {
		return ErrDoubleFree
	}
	r.freeNext[id] = r.freeHead
	r.freeHead = int32(id)
	r.allocs--
	return nil
}

// SortFreeList relinks the free list in ascending chunk-id order, so a run
// of subsequent Allocs hands out the lowest free ids sequentially. Bulk
// loaders call this before laying out a tree: with an ascending allocator,
// preorder allocation makes sibling subtrees physically contiguous, which
// is what lets adjacent-read merging and subtree prefetching find whole
// runs of children at consecutive chunk offsets.
func (r *Region) SortFreeList() {
	prev := int32(-1)
	for id := r.nchunks - 1; id >= 0; id-- {
		if r.freeNext[id] == -2 {
			continue
		}
		r.freeNext[id] = prev
		prev = int32(id)
	}
	r.freeHead = prev
}

func (r *Region) checkID(id int) error {
	if id < 0 || id >= r.nchunks {
		return ErrBadChunk
	}
	return nil
}

// checkWrite validates a write of n payload bytes to chunk id.
func (r *Region) checkWrite(id, n int) error {
	if err := r.checkID(id); err != nil {
		return err
	}
	if n > r.PayloadSize() {
		return ErrPayloadSize
	}
	return nil
}

// chunk returns the words of chunk id for reading: the shared zero chunk
// while its slab is uncommitted, which nothing may write through. Callers
// resolve a chunk once per operation and index its lines from there.
func (r *Region) chunk(id int) []uint64 {
	slab := r.slabs[id>>r.slabShift].Load()
	if slab == nil {
		return r.zero
	}
	off := (id & (1<<r.slabShift - 1)) * r.chunkWords
	return (*slab)[off : off+r.chunkWords : off+r.chunkWords]
}

// writable returns the words of chunk id for writing, committing its slab
// first when nothing has yet.
func (r *Region) writable(id int) []uint64 {
	slab := r.slabs[id>>r.slabShift].Load()
	if slab == nil {
		slab = r.commit(id >> r.slabShift)
	}
	off := (id & (1<<r.slabShift - 1)) * r.chunkWords
	return (*slab)[off : off+r.chunkWords : off+r.chunkWords]
}

// commit installs zeroed memory for slab s (the last slab holds only the
// chunks left over) and returns the slab that won: writers racing to commit
// one slab all write into the one whose CompareAndSwap succeeded.
func (r *Region) commit(s int) *[]uint64 {
	chunks := min(r.nchunks-s<<r.slabShift, 1<<r.slabShift)
	fresh := make([]uint64, chunks*r.chunkWords)
	if r.slabs[s].CompareAndSwap(nil, &fresh) {
		return &fresh
	}
	return r.slabs[s].Load()
}

// Version returns the current version of chunk id (the version of its first
// cacheline, which a completed write shares across all lines).
func (r *Region) Version(id int) (uint64, error) {
	if err := r.checkID(id); err != nil {
		return 0, err
	}
	return atomic.LoadUint64(&r.chunk(id)[0]), nil
}

// writeLine publishes one cacheline's words from src, the payload bytes from
// the line's start (zero-filled past src's end), at newVersion. A line whose
// resident payload words already equal the new ones is delta-published: one
// store moves its version and it never goes odd — a reader's copy of it is
// the same bytes on either side of that store, and its version still tells
// the reader which write of the chunk it belongs to. Any other line takes
// the seqlock: version goes odd, payload words land, version goes even
// (new).
func writeLine(line []uint64, newVersion uint64, src []byte) {
	if len(src) < LineData { // the partial tail line, or one past the payload
		var tail [LineData]byte
		copy(tail[:], src)
		src = tail[:]
	}
	var words [payloadWords]uint64
	changed := false
	for w := range words {
		words[w] = binary.LittleEndian.Uint64(src[w*8:])
		changed = changed || atomic.LoadUint64(&line[1+w]) != words[w]
	}
	if changed {
		atomic.StoreUint64(&line[0], atomic.LoadUint64(&line[0])|1) // mark write in progress
		for w, word := range words {
			atomic.StoreUint64(&line[1+w], word)
		}
	}
	atomic.StoreUint64(&line[0], newVersion)
}

// publish writes lines [from, to) of chunk c at version v from the payload
// hdr followed by body. The split lets a caller put a short header in front
// of a payload without first copying the two into one buffer.
func publish(c []uint64, from, to int, v uint64, hdr, body []byte) {
	for l := from; l < to; l++ {
		line := c[l*wordsPerLine : (l+1)*wordsPerLine]
		start := l * LineData
		if start >= len(hdr) {
			writeLine(line, v, body[min(start-len(hdr), len(body)):])
			continue
		}
		var joined [LineData]byte
		n := copy(joined[:], hdr[start:])
		copy(joined[n:], body)
		writeLine(line, v, joined[:])
	}
}

// nextVersion returns the version a fresh write of chunk c should publish:
// the current (even) version plus 2.
func nextVersion(c []uint64) uint64 {
	return (atomic.LoadUint64(&c[0]) &^ 1) + 2
}

// WriteChunk publishes payload into chunk id, bumping every cacheline's
// version. Payload shorter than the chunk's capacity zero-fills the rest.
// All lines are published in one call; in the simulation this is a single
// virtual instant.
func (r *Region) WriteChunk(id int, payload []byte) error {
	if err := r.checkWrite(id, len(payload)); err != nil {
		return err
	}
	c := r.writable(id)
	publish(c, 0, r.lines, nextVersion(c), nil, payload)
	return nil
}

// WriteChunkPrefix publishes payload into the leading cachelines of chunk id
// and bumps the version of every line in the chunk without rewriting the
// trailing payload bytes (which keep stale data). Decoders that consume only
// a length-prefixed prefix of the payload — such as R-tree nodes, which read
// exactly count entries — can use this to avoid rewriting a mostly empty
// 4 KB chunk on every small update. Consistency detection is unaffected: all
// lines still share one version.
func (r *Region) WriteChunkPrefix(id int, payload []byte) error {
	return r.writePrefix(id, nil, payload)
}

// writePrefix is WriteChunkPrefix of the payload hdr followed by body.
func (r *Region) writePrefix(id int, hdr, body []byte) error {
	n := len(hdr) + len(body)
	if err := r.checkWrite(id, n); err != nil {
		return err
	}
	c := r.writable(id)
	v := nextVersion(c)
	covered := (n + LineData - 1) / LineData
	publish(c, 0, covered, v, hdr, body)
	for l := covered; l < r.lines; l++ {
		atomic.StoreUint64(&c[l*wordsPerLine], v)
	}
	return nil
}

// StagedWrite is an in-progress chunk write split into two publication
// steps, used by the simulation to create a real torn-read window: between
// BeginWrite and Finish, the chunk's first half is at the new version and
// the second half at the old one.
type StagedWrite struct {
	chunk   []uint64
	lines   int
	payload []byte
	version uint64
	half    int
	done    bool
}

// BeginWrite starts a staged write of payload to chunk id and publishes the
// first half of the cachelines. Call Finish to publish the rest.
func (r *Region) BeginWrite(id int, payload []byte) (*StagedWrite, error) {
	if err := r.checkWrite(id, len(payload)); err != nil {
		return nil, err
	}
	c := r.writable(id)
	w := &StagedWrite{
		chunk:   c,
		lines:   r.lines,
		payload: append([]byte(nil), payload...),
		version: nextVersion(c),
		half:    (r.lines + 1) / 2,
	}
	publish(c, 0, w.half, w.version, nil, w.payload)
	return w, nil
}

// Finish publishes the remaining cachelines, completing the write. Finish is
// idempotent.
func (w *StagedWrite) Finish() {
	if w.done {
		return
	}
	w.done = true
	publish(w.chunk, w.half, w.lines, w.version, nil, w.payload)
}

// readLineStable copies one cacheline's words into dst (CacheLine bytes),
// retrying while a writer holds the line's seqlock so the line image is
// internally consistent. Each payload word is stored straight into dst
// between two loads of the version word; the image stands only when both
// loads agree on an even version, and a retry overwrites it. After
// stableAttempts retries the reader gives up and stamps the version odd, so
// an image that may mix two writes can only decode as torn. Cross-line
// consistency is the caller's concern (DecodeChunk).
func readLineStable(line []uint64, dst []byte) {
	words := (*[wordsPerLine]uint64)(line)
	img := (*[CacheLine]byte)(dst)
	le := binary.LittleEndian
	for attempt := 0; ; attempt++ {
		v1 := atomic.LoadUint64(&words[0])
		le.PutUint64(img[8:16], atomic.LoadUint64(&words[1]))
		le.PutUint64(img[16:24], atomic.LoadUint64(&words[2]))
		le.PutUint64(img[24:32], atomic.LoadUint64(&words[3]))
		le.PutUint64(img[32:40], atomic.LoadUint64(&words[4]))
		le.PutUint64(img[40:48], atomic.LoadUint64(&words[5]))
		le.PutUint64(img[48:56], atomic.LoadUint64(&words[6]))
		le.PutUint64(img[56:64], atomic.LoadUint64(&words[7]))
		v2 := atomic.LoadUint64(&words[0])
		stable := v1&1 == 0 && v1 == v2
		if stable || attempt >= stableAttempts {
			if !stable {
				v1 |= 1
			}
			le.PutUint64(img[0:8], v1)
			return
		}
	}
}

// ReadChunkRaw copies the raw bytes of chunk id (versions included) into
// dst, which must be exactly ChunkSize long. This models what an RDMA Read
// returns; it performs no cross-line consistency validation.
func (r *Region) ReadChunkRaw(id int, dst []byte) error {
	if err := r.checkID(id); err != nil {
		return err
	}
	if len(dst) != r.chunkSize {
		return ErrSizeMismatch
	}
	c := r.chunk(id)
	for l := 0; l < r.lines; l++ {
		readLineStable(c[l*wordsPerLine:(l+1)*wordsPerLine], dst[l*CacheLine:(l+1)*CacheLine])
	}
	return nil
}

// VersionsSize returns the size in bytes of one chunk's version vector:
// one VersionSize word per cacheline (512 B for the default 4 KB geometry,
// an eighth of a full chunk).
func (r *Region) VersionsSize() int { return r.lines * VersionSize }

// ReadVersions copies only the per-cacheline version words of chunk id
// into dst, which must be exactly VersionsSize long. This models the
// version-only RDMA Read the node cache uses to revalidate an entry
// without paying for the full chunk; like ReadChunkRaw it performs no
// cross-line consistency validation (see DecodeVersions).
func (r *Region) ReadVersions(id int, dst []byte) error {
	if err := r.checkID(id); err != nil {
		return err
	}
	if len(dst) != r.VersionsSize() {
		return ErrSizeMismatch
	}
	c := r.chunk(id)
	for l := 0; l < r.lines; l++ {
		binary.LittleEndian.PutUint64(dst[l*VersionSize:], atomic.LoadUint64(&c[l*wordsPerLine]))
	}
	return nil
}

// DecodeVersions validates a raw version vector (as read by ReadVersions)
// and returns the chunk's version fingerprint. It returns ErrTornRead when
// the lines disagree or a write was in progress — the caller then falls
// back to a full validated chunk read.
func DecodeVersions(raw []byte) (uint64, error) {
	if len(raw) == 0 || len(raw)%VersionSize != 0 {
		return 0, ErrSizeMismatch
	}
	version := binary.LittleEndian.Uint64(raw)
	if version&1 != 0 {
		return version, ErrTornRead
	}
	for off := VersionSize; off < len(raw); off += VersionSize {
		if binary.LittleEndian.Uint64(raw[off:]) != version {
			return version, ErrTornRead
		}
	}
	return version, nil
}

// DecodeChunk validates the version consistency of a raw chunk image and,
// when consistent, writes the payload bytes into dst (reusing its capacity)
// and returns the payload and the observed version. It returns ErrTornRead
// when cacheline versions disagree or a line was mid-write.
func DecodeChunk(raw []byte, dst []byte) ([]byte, uint64, error) {
	if len(raw) == 0 || len(raw)%CacheLine != 0 {
		return nil, 0, ErrSizeMismatch
	}
	lines := len(raw) / CacheLine
	version := binary.LittleEndian.Uint64(raw)
	if version&1 != 0 {
		return nil, version, ErrTornRead
	}
	for l := 1; l < lines; l++ {
		if binary.LittleEndian.Uint64(raw[l*CacheLine:]) != version {
			return nil, version, ErrTornRead
		}
	}
	if cap(dst) < lines*LineData {
		dst = make([]byte, 0, lines*LineData)
	}
	dst = dst[:lines*LineData]
	le := binary.LittleEndian
	for l := 0; l < lines; l++ {
		line := (*[CacheLine]byte)(raw[l*CacheLine:])
		out := (*[LineData]byte)(dst[l*LineData:])
		le.PutUint64(out[0:8], le.Uint64(line[8:16]))
		le.PutUint64(out[8:16], le.Uint64(line[16:24]))
		le.PutUint64(out[16:24], le.Uint64(line[24:32]))
		le.PutUint64(out[24:32], le.Uint64(line[32:40]))
		le.PutUint64(out[32:40], le.Uint64(line[40:48]))
		le.PutUint64(out[40:48], le.Uint64(line[48:56]))
		le.PutUint64(out[48:56], le.Uint64(line[56:64]))
	}
	return dst, version, nil
}

// ReadChunk performs a validated read of chunk id directly (the server-local
// fast path): raw copy plus decode. Retrying on ErrTornRead is the caller's
// concern.
func (r *Region) ReadChunk(id int, raw, payload []byte) ([]byte, uint64, error) {
	if err := r.ReadChunkRaw(id, raw); err != nil {
		return nil, 0, err
	}
	return DecodeChunk(raw, payload)
}
