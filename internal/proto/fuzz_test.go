package proto

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// replyLog is fakeExec keeping every reply's frames undecoded: a batch is
// answered with batch containers, which fakeExec.Reply does not parse.
type replyLog struct {
	fakeExec
	frames []byte
}

func (x *replyLog) Reply(frames []byte) error {
	x.frames = append(x.frames, frames...)
	return nil
}

// subRequests walks container the way Serve.Batch does: each sub-message's
// request (the zero Request when it does not decode), and whether the
// container itself is well formed.
func subRequests(container []byte) ([]wire.Request, bool) {
	it, err := wire.DecodeBatch(container)
	if err != nil {
		return nil, false
	}
	var reqs []wire.Request
	for {
		msg, more := it.Next()
		if !more {
			return reqs, it.Err() == nil
		}
		req, err := wire.DecodeRequest(msg)
		if err != nil {
			req = wire.Request{}
		}
		reqs = append(reqs, req)
	}
}

// replySegments unpacks length-prefixed reply frames — batch containers of
// response segments, or one bare response — into their segments in order.
func replySegments(t *testing.T, frames []byte) []wire.Response {
	t.Helper()
	var out []wire.Response
	for len(frames) > 0 {
		if len(frames) < 4 {
			t.Fatalf("reply frame prefix truncated: %d bytes", len(frames))
		}
		n := int(binary.LittleEndian.Uint32(frames))
		if len(frames)-4 < n {
			t.Fatalf("reply frame of %d bytes holds %d", n, len(frames)-4)
		}
		frame := frames[4 : 4+n]
		frames = frames[4+n:]
		if len(frame) > 0 && wire.MsgType(frame[0]) != wire.MsgBatch {
			resp, err := wire.DecodeResponse(frame)
			if err != nil {
				t.Fatalf("reply frame: %v", err)
			}
			out = append(out, resp)
			continue
		}
		it, err := wire.DecodeBatch(frame)
		if err != nil {
			t.Fatalf("reply container: %v", err)
		}
		for {
			msg, more := it.Next()
			if !more {
				break
			}
			resp, err := wire.DecodeResponse(msg)
			if err != nil {
				t.Fatalf("reply sub-message: %v", err)
			}
			out = append(out, resp)
		}
		if it.Err() != nil {
			t.Fatalf("reply container: %v", it.Err())
		}
	}
	return out
}

// FuzzServeBatch feeds arbitrary container bytes to Serve.Batch over a
// small tree. Nothing may panic; a corrupt container is refused with one
// status reply; otherwise every sub-message the container yields is answered
// exactly once, in order, under its id (0 when it does not decode); and no
// kNN returns more than min(k, Len()) neighbors.
func FuzzServeBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	entries := make([]rtree.Entry, 200)
	for i := range entries {
		entries[i] = rtree.Entry{Rect: testRect(rng, 0.01), Ref: uint64(i)}
	}
	f.Fuzz(func(t *testing.T, container []byte) {
		x := &replyLog{fakeExec: fakeExec{tree: loadTree(t, entries)}}
		s, err := NewServe[*replyLog](ServeConfig{Tree: x.tree})
		if err != nil {
			t.Fatal(err)
		}
		reqs, ok := subRequests(container)
		size := x.tree.Len()
		if err := s.Batch(x, container, BatchFrameLimit); err != nil {
			t.Fatal(err)
		}
		segs := replySegments(t, x.frames)
		if !ok {
			if len(segs) != 1 || segs[0].ID != 0 || !segs[0].Final || segs[0].Status != wire.StatusError {
				t.Fatalf("corrupt container answered with %+v, want one error status under id 0", segs)
			}
			return
		}
		for i, req := range reqs {
			items := 0
			for {
				if len(segs) == 0 {
					t.Fatalf("sub-message %d (id %d) unanswered", i, req.ID)
				}
				seg := segs[0]
				segs = segs[1:]
				if seg.ID != req.ID {
					t.Fatalf("sub-message %d answered under id %d, want %d", i, seg.ID, req.ID)
				}
				items += len(seg.Items)
				if seg.Final {
					if seg.Status != wire.StatusOK && items > 0 {
						t.Fatalf("sub-message %d failed with status %d but returned %d items", i, seg.Status, items)
					}
					break
				}
			}
			switch req.Type {
			case wire.MsgInsert, wire.MsgMove:
				size++ // an upper bound on Len() for what follows
			case wire.MsgKNN, wire.MsgKNNFetch:
				if k := int(req.Ref); items > max(min(k, size), 0) {
					t.Fatalf("kNN %d (k=%d) returned %d neighbors from a tree of at most %d", i, k, items, size)
				}
			}
		}
		if len(segs) != 0 {
			t.Fatalf("%d reply segments past the last sub-message", len(segs))
		}
	})
}
