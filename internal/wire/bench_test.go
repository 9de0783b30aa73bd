package wire

import (
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
)

// fastMessageRound is one fast-messaging exchange on the pooled zero-copy
// hot path: encode a request batch container, decode it server-side,
// encode the response batch, and fold it back client-side with
// DecodeResponseInto. All buffers are reused; steady state allocates
// nothing (asserted by TestFastMessageHotPathZeroAlloc, reported by
// BenchmarkFastMessage).
type fastMessageRound struct {
	reqBuf, respBuf []byte
	reqEnc, respEnc BatchEncoder
	resp            Response
	items           []Item
}

func newFastMessageRound() *fastMessageRound {
	f := &fastMessageRound{items: make([]Item, 4)}
	for i := range f.items {
		f.items[i] = Item{Rect: geo.NewRect(0.1, 0.1, 0.2, 0.2), Ref: uint64(i)}
	}
	return f
}

func (f *fastMessageRound) run(ops int) (results int, err error) {
	f.reqEnc.Reset(f.reqBuf[:0])
	q := geo.NewRect(0.4, 0.4, 0.6, 0.6)
	for i := 0; i < ops; i++ {
		f.reqEnc.Begin()
		f.reqEnc.Buf = Request{Type: MsgSearch, ID: uint64(i + 1), Rect: q}.Encode(f.reqEnc.Buf)
		f.reqEnc.End()
	}
	payload := f.reqEnc.Bytes()
	f.reqBuf = f.reqEnc.Buf

	it, err := DecodeBatch(payload)
	if err != nil {
		return 0, err
	}
	f.respEnc.Reset(f.respBuf[:0])
	for {
		msg, ok := it.Next()
		if !ok {
			break
		}
		req, err := DecodeRequest(msg)
		if err != nil {
			return 0, err
		}
		f.respEnc.Begin()
		f.respEnc.Buf = Response{ID: req.ID, Status: StatusOK, Final: true, Items: f.items}.Encode(f.respEnc.Buf)
		f.respEnc.End()
	}
	if err := it.Err(); err != nil {
		return 0, err
	}
	respPayload := f.respEnc.Bytes()
	f.respBuf = f.respEnc.Buf

	rit, err := DecodeBatch(respPayload)
	if err != nil {
		return 0, err
	}
	for {
		msg, ok := rit.Next()
		if !ok {
			break
		}
		if err := DecodeResponseInto(msg, &f.resp); err != nil {
			return 0, err
		}
		results += len(f.resp.Items)
	}
	return results, rit.Err()
}

func BenchmarkFastMessage(b *testing.B) {
	const ops = 16
	f := newFastMessageRound()
	if _, err := f.run(ops); err != nil { // warm buffer capacities
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		results, err := f.run(ops)
		if err != nil {
			b.Fatal(err)
		}
		if results != ops*len(f.items) {
			b.Fatalf("results = %d", results)
		}
	}
}

func BenchmarkFastMessageUnbatched(b *testing.B) {
	// The per-operation baseline: 16 independent request/response encodes
	// and allocation-free decodes, no containers. Comparing ns/op against
	// BenchmarkFastMessage shows the container overhead is marginal.
	const ops = 16
	f := newFastMessageRound()
	q := geo.NewRect(0.4, 0.4, 0.6, 0.6)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < ops; i++ {
			f.reqBuf = Request{Type: MsgSearch, ID: uint64(i + 1), Rect: q}.Encode(f.reqBuf[:0])
			req, err := DecodeRequest(f.reqBuf)
			if err != nil {
				b.Fatal(err)
			}
			f.respBuf = Response{ID: req.ID, Status: StatusOK, Final: true, Items: f.items}.Encode(f.respBuf[:0])
			if err := DecodeResponseInto(f.respBuf, &f.resp); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDecodeResponseAppend times the client's decode of a 500-item
// result segment into a slice already sized for it, as rpcnet's fold does.
func BenchmarkDecodeResponseAppend(b *testing.B) {
	items := make([]Item, 500)
	for i := range items {
		x := float64(i) / 500
		items[i] = Item{Rect: geo.NewRect(x, x, x+1e-4, x+1e-4), Ref: uint64(i)}
	}
	frame := Response{ID: 1, Status: StatusOK, Final: true, Items: items}.Encode(nil)
	dst := make([]Item, 0, len(items))
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := DecodeResponseAppend(frame, dst[:0])
		if err != nil || len(r.Items) != len(items) {
			b.Fatalf("%d items, %v", len(r.Items), err)
		}
	}
}
