package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// A golden script logs one line per request (or batch) with everything the
// server sent back for it: how many transport messages, when the last one
// was read off the ring or socket, and a SHA-256 over every message's
// arrival time, length and bytes.

// goldenWire is a bare connection to the server — the rings (or the
// simulated socket) and nothing else, so what is recorded is exactly what
// the server wrote and when.
type goldenWire struct {
	t     *testing.T
	ep    *Endpoint
	id    uint64
	log   []string
	descs []wire.FetchDesc // mailbox slots granted to this connection, unacked
}

func (w *goldenWire) nextID() uint64 { w.id++; return w.id }

func (w *goldenWire) send(p *sim.Proc, frame []byte) {
	if w.ep.TCP != nil {
		w.ep.TCP.Send(p, frame)
		return
	}
	if err := w.ep.ReqWriter.Send(p, frame, 0, true); err != nil {
		w.t.Errorf("send: %v", err)
	}
}

// exchange sends frame and reads reply messages until every id in ids has
// seen its END segment or a fetch descriptor; with no ids it only sends and
// then idles long enough for the server to have consumed the message.
func (w *goldenWire) exchange(p *sim.Proc, step string, frame []byte, ids ...uint64) {
	w.send(p, frame)
	h := sha256.New()
	msgs := 0
	open := map[uint64]bool{}
	for _, id := range ids {
		open[id] = true
	}
	sub := func(msg []byte) {
		typ, id, err := wire.PeekID(msg)
		if err != nil {
			w.t.Errorf("%s: %v", step, err)
			return
		}
		if typ == wire.MsgFetchDesc {
			d, err := wire.DecodeFetchDesc(msg)
			if err != nil {
				w.t.Errorf("%s: %v", step, err)
			}
			w.descs = append(w.descs, d)
			delete(open, id)
			return
		}
		resp, err := wire.DecodeResponse(msg)
		if err != nil {
			w.t.Errorf("%s: %v", step, err)
		}
		if resp.Final {
			delete(open, id)
		}
	}
	message := func(frame []byte) {
		var hdr [12]byte
		binary.LittleEndian.PutUint64(hdr[:], uint64(p.Now()))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(frame)))
		h.Write(hdr[:])
		h.Write(frame)
		msgs++
		if wire.MsgType(frame[0]) != wire.MsgBatch {
			sub(frame)
			return
		}
		it, err := wire.DecodeBatch(frame)
		if err != nil {
			w.t.Errorf("%s: %v", step, err)
			return
		}
		for {
			m, ok := it.Next()
			if !ok {
				break
			}
			sub(m)
		}
	}
	for len(open) > 0 {
		if w.ep.TCP != nil {
			message(w.ep.TCP.Recv(p))
			continue
		}
		w.ep.RespReader.CQ().Pop(p)
		for {
			payload, err, ok := w.ep.RespReader.TryRecv()
			if err != nil {
				w.t.Fatalf("%s: ring: %v", step, err)
			}
			if !ok {
				break
			}
			message(payload)
		}
		if err := w.ep.RespReader.ReportHead(p); err != nil {
			w.t.Fatalf("%s: %v", step, err)
		}
	}
	if len(ids) == 0 {
		p.Sleep(5 * time.Microsecond)
	}
	w.log = append(w.log, fmt.Sprintf("%s: %d msgs, last at %d ns, sha %x", step, msgs, int64(p.Now()), h.Sum(nil)[:8]))
}

// one sends a single request.
func (w *goldenWire) one(p *sim.Proc, step string, req wire.Request) {
	req.ID = w.nextID()
	w.exchange(p, step, req.Encode(nil), req.ID)
}

// batch sends reqs in one container; a request of type 0 becomes an
// undecodable sub-message, which the server answers under id 0.
func (w *goldenWire) batch(p *sim.Proc, step string, reqs ...wire.Request) {
	var enc wire.BatchEncoder
	enc.Reset(nil)
	ids := make([]uint64, 0, len(reqs))
	for _, r := range reqs {
		enc.Begin()
		if r.Type == 0 {
			enc.Buf = append(enc.Buf, 0xEE, 0xEE, 0xEE)
			ids = append(ids, 0)
		} else {
			r.ID = w.nextID()
			enc.Buf = r.Encode(enc.Buf)
			ids = append(ids, r.ID)
		}
		enc.End()
	}
	w.exchange(p, step, enc.Bytes(), ids...)
}

// ack returns every mailbox slot this connection holds.
func (w *goldenWire) ack(p *sim.Proc, step string) {
	for _, d := range w.descs {
		w.exchange(p, step, wire.FetchAck{Slot: d.Slot, Seq: d.Seq}.Encode(nil))
	}
	w.descs = w.descs[:0]
}

func goldenRect(x, y, w float64) geo.Rect {
	return geo.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + w}
}

var goldenAll = geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}

// goldenMain is the script every configuration replays on its first
// connection: every request type alone and inside batches, replies of one
// segment and of fifty, fetch queries that fit the mailbox, undercut
// FetchInlineMax, overflow a slot and find every slot taken, an undecodable
// request, an undecodable sub-request, an operation that fails, and a batch
// whose 5 000-item result crosses the container split. mid runs once, half
// way through (the configuration's kill, its replicated records, ...).
func goldenMain(p *sim.Proc, w *goldenWire, mid func(p *sim.Proc)) {
	search := func(r geo.Rect) wire.Request { return wire.Request{Type: wire.MsgSearch, Rect: r} }
	fetch := func(r geo.Rect) wire.Request { return wire.Request{Type: wire.MsgSearchFetch, Rect: r} }
	knn := func(k int, x, y float64) wire.Request { return wire.KNNRequest(0, k, x, y) }
	knnFetch := func(k int, x, y float64) wire.Request {
		r := wire.KNNRequest(0, k, x, y)
		r.Type = wire.MsgKNNFetch
		return r
	}
	insert := func(r geo.Rect, ref uint64) wire.Request {
		return wire.Request{Type: wire.MsgInsert, Rect: r, Ref: ref}
	}
	del := func(r geo.Rect, ref uint64) wire.Request {
		return wire.Request{Type: wire.MsgDelete, Rect: r, Ref: ref}
	}
	move := func(from, to geo.Rect, ref uint64) wire.Request {
		return wire.Request{Type: wire.MsgMove, Rect: from, Ref: ref, Rect2: to}
	}
	small, medium := goldenRect(0.40, 0.40, 0.02), goldenRect(0.30, 0.30, 0.22)
	a, b, c := goldenRect(0.11, 0.12, 0.001), goldenRect(0.71, 0.22, 0.001), goldenRect(0.45, 0.46, 0.001)

	w.one(p, "search-small", search(small))
	w.one(p, "search-medium", search(medium))
	w.one(p, "search-all", search(goldenAll))
	w.one(p, "knn-1", knn(1, 0.5, 0.5))
	w.one(p, "knn-10", knn(10, 0.2, 0.8))
	w.one(p, "knn-250", knn(250, 0.6, 0.4))
	w.one(p, "knn-bad-k", knn(0, 0.5, 0.5))
	w.one(p, "insert-a", insert(a, 1<<40))
	w.one(p, "insert-b", insert(b, 1<<40+1))
	w.one(p, "delete-miss", del(c, 1<<40+7))
	w.one(p, "move-hit", move(a, c, 1<<40))
	w.one(p, "move-miss", move(a, goldenRect(0.9, 0.9, 0.001), 1<<40+2))
	w.one(p, "delete-hit", del(b, 1<<40+1))
	w.exchange(p, "undecodable", []byte{0xFF, 0xFF}, 0)
	w.exchange(p, "corrupt-batch", []byte{byte(wire.MsgBatch), 9, 0, 1}, 0)

	w.one(p, "fetch-below-inline", fetch(small))
	w.one(p, "fetch-medium", fetch(medium))
	w.one(p, "knnfetch-250", knnFetch(250, 0.6, 0.4))
	w.one(p, "fetch-slots-taken", fetch(medium))
	w.ack(p, "ack")
	w.one(p, "fetch-after-ack", fetch(medium))
	w.one(p, "fetch-over-capacity", fetch(goldenAll))
	w.ack(p, "ack")

	mid(p)

	w.batch(p, "batch-readonly", search(small), knn(10, 0.2, 0.8), fetch(medium), knnFetch(250, 0.6, 0.4), search(medium))
	w.ack(p, "ack")
	w.batch(p, "batch-mixed", search(small), insert(a, 1<<41), move(a, b, 1<<41), knn(3, 0.71, 0.22),
		del(c, 1<<40), del(c, 1<<40), move(c, a, 1<<41+1), fetch(medium), search(goldenRect(0.7, 0.2, 0.03)))
	w.ack(p, "ack")
	w.one(p, "promote", wire.Request{Type: wire.MsgPromote, Ref: 2})
	w.batch(p, "batch-undecodable", search(small), wire.Request{}, knn(0, 0.1, 0.1),
		wire.Request{Type: wire.MsgPromote, Ref: 3}, insert(c, 1<<41+2))
	w.batch(p, "batch-writes", insert(a, 1<<42), del(a, 1<<42), del(a, 1<<42))
	w.batch(p, "batch-5000", search(small), search(goldenAll), knn(10, 0.5, 0.5), fetch(goldenAll), search(medium))
	w.ack(p, "ack")
	w.one(p, "search-after", search(goldenRect(0.1, 0.1, 0.05)))
	w.one(p, "insert-after", insert(goldenRect(0.5, 0.5, 0.002), 1<<42+1))
}

// goldenSide runs beside goldenMain on a second connection, so latch
// hand-offs, the staged publish window and mailbox-slot competition all
// have someone to happen against.
func goldenSide(p *sim.Proc, w *goldenWire) {
	p.Sleep(700 * time.Nanosecond)
	for i := 0; i < 12; i++ {
		x := 0.05 + 0.07*float64(i)
		spot := goldenRect(x, 1-x, 0.001)
		w.one(p, "side-search", wire.Request{Type: wire.MsgSearch, Rect: goldenRect(x, x, 0.1)})
		w.one(p, "side-insert", wire.Request{Type: wire.MsgInsert, Rect: spot, Ref: 1<<50 + uint64(i)})
		w.one(p, "side-fetch", wire.Request{Type: wire.MsgSearchFetch, Rect: goldenRect(x, 0.3, 0.2)})
		if i%3 == 2 {
			w.ack(p, "side-ack")
		}
		w.batch(p, "side-batch",
			wire.Request{Type: wire.MsgSearch, Rect: spot},
			wire.Request{Type: wire.MsgMove, Rect: spot, Ref: 1<<50 + uint64(i), Rect2: goldenRect(1-x, x, 0.001)},
			wire.KNNRequest(0, 5, x, x))
		p.Sleep(3 * time.Microsecond)
	}
	w.ack(p, "side-ack")
}

// scriptedPeer is a backup that answers a primary's exchanges from a script:
// each exchange takes 2 µs of the primary's proc, under its latch, and the
// n-th answers faults[n] — a gap leaves the backup where it was, a fence
// names epoch 5 — or acknowledges the whole batch. Faults are noted.
type scriptedPeer struct {
	name    string
	srv     *Server
	faults  map[int]uint8
	calls   int
	applied uint64
	notes   *[]string
}

func (sp *scriptedPeer) Exchange(recs []replica.Record) (wire.ReplAck, error) {
	sp.calls++
	p := sp.srv.shipP
	p.Sleep(2 * time.Microsecond)
	ack := wire.ReplAck{Status: sp.faults[sp.calls], Epoch: 1} // StatusOK is 0
	switch ack.Status {
	case wire.StatusOK:
		if len(recs) > 0 {
			sp.applied = recs[len(recs)-1].Seq
		}
	case wire.StatusFenced:
		ack.Epoch = 5
	}
	ack.AppliedSeq = sp.applied
	if sp.faults[sp.calls] != 0 || sp.faults[sp.calls-1] == wire.StatusError {
		*sp.notes = append(*sp.notes, fmt.Sprintf("%s exchange %d at %d: %d records, answered status %d, applied %d",
			sp.name, sp.calls, p.Now(), len(recs), ack.Status, ack.AppliedSeq))
	}
	return ack, nil
}

// TestServerSimGolden pins the simulated server to
// testdata/server-golden.json, captured before the sim and TCP servers were
// folded onto one request-execution core: per configuration, every reply
// message's bytes and simulated arrival time (folded per request), the final
// counters, and a hash of every region chunk. The configurations are event
// mode, polling mode, the simulated socket, staged node writes, a two-slot
// fetch mailbox, a backup that refuses writes until promoted (and applies
// replicated records meanwhile), a primary whose backups answer from a
// script (refusal, gap and resend, stuck gap, fence), and a server killed
// half way. A deliberate behaviour change
// regenerates the file from the "got" document this test prints.
func TestServerSimGolden(t *testing.T) {
	type row struct {
		Main, Side []string
		Stats      Stats
		Tree       string
		Mailbox    string   `json:",omitempty"`
		Notes      []string `json:",omitempty"`
	}
	type variant struct {
		name string
		tcp  bool
		cfg  func(e *sim.Engine, cfg *Config)
		// mid returns the half-way hook; notes collects what it observed.
		mid func(srv *Server, notes *[]string) func(p *sim.Proc)
	}
	const hb = 100 * time.Microsecond
	variants := []variant{
		{name: "event", cfg: func(_ *sim.Engine, c *Config) { c.HeartbeatInterval = hb }},
		{name: "polling", cfg: func(e *sim.Engine, c *Config) {
			c.Mode, c.PollCPU = ModePolling, sim.NewPollCPU(e, 2, time.Microsecond)
		}},
		{name: "tcp", tcp: true, cfg: func(_ *sim.Engine, c *Config) { c.HeartbeatInterval = hb }},
		{name: "staged", cfg: func(_ *sim.Engine, c *Config) { c.StagedNodeWrites = true; c.MaxSegmentItems = 30 }},
		{name: "fetch", cfg: func(_ *sim.Engine, c *Config) {
			c.FetchSlots, c.FetchSlotChunks, c.FetchInlineMax = 2, 8, 50
			c.HeartbeatInterval = hb
		}},
		{name: "fetch-staged-tcp", tcp: true, cfg: func(_ *sim.Engine, c *Config) {
			c.FetchSlots, c.FetchSlotChunks, c.StagedNodeWrites = 3, 8, true
		}},
		{name: "backup", cfg: func(_ *sim.Engine, c *Config) { c.Replica = replica.NewState(1, false) },
			mid: func(srv *Server, notes *[]string) func(p *sim.Proc) {
				return func(p *sim.Proc) {
					// The primary's stream: two good records, a gap, a stale
					// epoch, a record that is not a mutation, and one more.
					// The script's promote step comes later.
					for _, rec := range []replica.Record{
						{Epoch: 1, Seq: 1, Op: wire.MsgInsert, Rect: goldenRect(0.33, 0.66, 0.001), Ref: 1 << 45},
						{Epoch: 1, Seq: 2, Op: wire.MsgDelete, Rect: goldenRect(0.33, 0.66, 0.001), Ref: 1 << 45},
						{Epoch: 1, Seq: 9, Op: wire.MsgInsert, Rect: goldenRect(0.1, 0.1, 0.001), Ref: 1<<45 + 1},
						{Epoch: 0, Seq: 3, Op: wire.MsgInsert, Rect: goldenRect(0.1, 0.1, 0.001), Ref: 1<<45 + 2},
						{Epoch: 1, Seq: 3, Op: wire.MsgSearch, Rect: goldenRect(0.1, 0.1, 0.001)},
						{Epoch: 1, Seq: 4, Op: wire.MsgInsert, Rect: goldenRect(0.2, 0.7, 0.001), Ref: 1<<45 + 3},
					} {
						ack := srv.applyReplicated(p, []replica.Record{rec})
						*notes = append(*notes, fmt.Sprintf("apply seq %d at %d: status %d, applied %d",
							rec.Seq, p.Now(), ack.Status, ack.AppliedSeq))
					}
				}
			}},
		{name: "primary", cfg: func(_ *sim.Engine, c *Config) { c.Replica = replica.NewState(1, true) },
			mid: func(srv *Server, notes *[]string) func(p *sim.Proc) {
				// Three backups answer from a script: one refuses service, one
				// misses a record that the resend brings, then misses one the
				// resend cannot bring, and one has been promoted past us.
				for _, sp := range []*scriptedPeer{
					{name: "a", faults: map[int]uint8{4: wire.StatusUnavailable}},
					{name: "b", faults: map[int]uint8{6: wire.StatusError, 12: wire.StatusError, 13: wire.StatusError}},
					{name: "c", faults: map[int]uint8{30: wire.StatusFenced}},
				} {
					sp.srv, sp.notes = srv, notes
					srv.repl.Attach(sp)
				}
				return func(*sim.Proc) {}
			}},
		{name: "killed", cfg: func(_ *sim.Engine, c *Config) { c.FetchSlots = 4; c.Replica = replica.NewState(1, true) },
			mid: func(srv *Server, _ *[]string) func(p *sim.Proc) {
				return func(*sim.Proc) { srv.Kill() }
			}},
	}

	got := map[string]row{}
	for _, v := range variants {
		e := sim.New(1)
		prof := netmodel.InfiniBand100G
		if v.tcp {
			prof = netmodel.Ethernet1G
		}
		net := fabric.NewNetwork(e, prof)
		cfg := Config{
			Engine: e,
			Host:   net.NewHost("server", sim.NewCPU(e, 2)),
			Tree:   testTree(t, 5000),
			Cost:   netmodel.DefaultCostModel(),
		}
		v.cfg(e, &cfg)
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		connect := func(name string) *goldenWire {
			host := net.NewHost(name, sim.NewCPU(e, 2))
			var ep *Endpoint
			if v.tcp {
				ep, err = srv.ConnectTCP(host, net)
			} else {
				ep, err = srv.Connect(host, net, 8)
			}
			if err != nil {
				t.Fatal(err)
			}
			return &goldenWire{t: t, ep: ep}
		}
		main, side := connect("main"), connect("side")
		side.id = 1 << 20
		var r row
		mid := func(*sim.Proc) {}
		if v.mid != nil {
			mid = v.mid(srv, &r.Notes)
		}
		wg := sim.NewWaitGroup(e)
		wg.Add(2)
		e.Spawn("main", func(p *sim.Proc) { defer wg.Done(); goldenMain(p, main, mid) })
		e.Spawn("side", func(p *sim.Proc) { defer wg.Done(); goldenSide(p, side) })
		e.Spawn("stop", func(p *sim.Proc) { wg.Wait(p); e.Stop() })
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if v.name != "killed" {
			if err := srv.Tree().(*rtree.Tree).CheckInvariants(); err != nil {
				t.Errorf("%s: %v", v.name, err)
			}
		}
		r.Main, r.Side, r.Stats = main.log, side.log, srv.Stats()
		r.Tree = goldenRegionHash(t, srv.Tree().Region())
		if main.ep.MailboxMem != nil {
			r.Mailbox = goldenRegionHash(t, main.ep.MailboxMem.Region())
		}
		got[v.name] = r
	}

	doc, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	doc = append(doc, '\n')
	want, err := os.ReadFile("testdata/server-golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, want) {
		t.Errorf("server runs diverge from testdata/server-golden.json; got:\n%s", doc)
	}
}

// goldenRegionHash hashes the raw image — version words included — of every
// chunk of reg.
func goldenRegionHash(t *testing.T, reg *region.Region) string {
	t.Helper()
	h := sha256.New()
	raw := make([]byte, reg.ChunkSize())
	for id := 0; id < reg.NumChunks(); id++ {
		if err := reg.ReadChunkRaw(id, raw); err != nil {
			t.Fatal(err)
		}
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}
