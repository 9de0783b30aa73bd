package client

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// goldenScript generates the scripted op mix every golden run replays:
// searches of mixed scope, inserts, deletes of entries the script inserted
// (and a few that never existed), MOVEs of known and unknown refs, and kNN
// with k from 1 to past the dataset.
func goldenScript(n int, seed int64) []BatchOp {
	rng := rand.New(rand.NewSource(seed))
	type live struct {
		r   geo.Rect
		ref uint64
	}
	var alive []live
	next := uint64(1 << 32)
	ops := make([]BatchOp, 0, n)
	for len(ops) < n {
		switch d := rng.Intn(20); {
		case d < 9:
			ops = append(ops, BatchOp{Type: wire.MsgSearch, Rect: randRect(rng, rng.Float64()*0.25)})
		case d < 12:
			e := live{randRect(rng, 0.01), next}
			next++
			alive = append(alive, e)
			ops = append(ops, BatchOp{Type: wire.MsgInsert, Rect: e.r, Ref: e.ref})
		case d < 14:
			if len(alive) == 0 || rng.Intn(4) == 0 {
				ops = append(ops, BatchOp{Type: wire.MsgDelete, Rect: randRect(rng, 0.01), Ref: next + 1<<20})
				continue
			}
			i := rng.Intn(len(alive))
			ops = append(ops, BatchOp{Type: wire.MsgDelete, Rect: alive[i].r, Ref: alive[i].ref})
			alive = append(alive[:i], alive[i+1:]...)
		case d < 17:
			to := randRect(rng, 0.01)
			if len(alive) == 0 || rng.Intn(4) == 0 {
				e := live{to, next}
				next++
				alive = append(alive, e)
				ops = append(ops, BatchOp{Type: wire.MsgMove, Rect: randRect(rng, 0.01), Rect2: to, Ref: e.ref})
				continue
			}
			i := rng.Intn(len(alive))
			ops = append(ops, BatchOp{Type: wire.MsgMove, Rect: alive[i].r, Rect2: to, Ref: alive[i].ref})
			alive[i].r = to
		default:
			k := []int{1, 10, 5000}[rng.Intn(3)]
			ops = append(ops, BatchOp{Type: wire.MsgKNN, Rect: geo.PointRect(rng.Float64(), rng.Float64()), Ref: uint64(k)})
		}
	}
	return ops
}

// goldenDigest folds every result of a run — method, error class, items in
// the order returned — into one hash.
type goldenDigest struct{ h []byte }

func (d *goldenDigest) add(m Method, items []wire.Item, err error) {
	class := byte(0)
	switch {
	case err == nil:
	case errors.Is(err, ErrNotFound):
		class = 1
	case errors.Is(err, proto.ErrServer):
		class = 2
	default:
		class = 3
	}
	d.h = append(d.h, byte(m), class)
	d.h = binary.LittleEndian.AppendUint32(d.h, uint32(len(items)))
	for _, it := range items {
		for _, f := range [4]float64{it.Rect.MinX, it.Rect.MinY, it.Rect.MaxX, it.Rect.MaxY} {
			d.h = binary.LittleEndian.AppendUint64(d.h, math.Float64bits(f))
		}
		d.h = binary.LittleEndian.AppendUint64(d.h, it.Ref)
	}
}

func (d *goldenDigest) sum() string {
	h := fnv.New64a()
	h.Write(d.h)
	return fmt.Sprintf("%016x", h.Sum64())
}

// runGoldenScript replays script on c — op by op through the unbatched API,
// or in ExecBatch groups of batch — and returns the result digest. arm, when
// non-nil, is called before every op (or batch) with its index.
func runGoldenScript(t *testing.T, r *rig, c *Client, script []BatchOp, batch int, arm func(i int)) string {
	t.Helper()
	var d goldenDigest
	r.e.Spawn("golden", func(p *sim.Proc) {
		defer p.Engine().Stop()
		if batch > 1 {
			var results []BatchResult
			for i := 0; i < len(script); i += batch {
				if arm != nil {
					arm(i)
				}
				results = c.On(p).ExecBatch(script[i:min(i+batch, len(script))], results)
				for _, res := range results {
					d.add(res.Method, res.Items, res.Err)
				}
			}
			return
		}
		for i, op := range script {
			if arm != nil {
				arm(i)
			}
			switch op.Type {
			case wire.MsgInsert:
				d.add(0, nil, c.On(p).Insert(op.Rect, op.Ref))
			case wire.MsgDelete:
				d.add(0, nil, c.On(p).Delete(op.Rect, op.Ref))
			case wire.MsgMove:
				d.add(0, nil, c.On(p).Move(op.Rect, op.Rect2, op.Ref))
			case wire.MsgKNN:
				x, y := op.Rect.Center()
				nbrs, m, err := c.On(p).Nearest(int(op.Ref), x, y)
				d.add(m, proto.ItemsOfNeighbors(nbrs), err)
			default:
				items, m, err := c.On(p).Search(op.Rect)
				d.add(m, items, err)
			}
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	return d.sum()
}

// TestClientSimGolden pins the simulated client's timing, counters and
// results to testdata/client-golden.json, captured before the sim and TCP
// client op layers were folded into one core: for each scripted
// single-client run, the virtual time at which the script finished, the
// full counter snapshot and a digest of every result. Each access method —
// forced fast, offload (single-issue, and multi-issue with node cache,
// merged reads and the prefetch bucket), fetch, the socket baseline, and
// the adaptive 3-way switch — runs plain and as mixed batches of 8. The
// fetch runs hit all three deliveries: inline, mailbox pull, and a pull
// that gives up (a saboteur process rewrites the slot under the client)
// and re-executes over fast messaging. A deliberate behaviour change
// regenerates the file from the "got" document this test prints.
func TestClientSimGolden(t *testing.T) {
	type row struct {
		EndNs  int64
		Digest string
		Stats  any
	}
	got := map[string]row{}
	script := goldenScript(320, 21)
	const hb = 200 * time.Microsecond

	type variant struct {
		name string
		opts rigOpts
		cfg  Config
		tcp  bool
		// sabotage arms the slot saboteur for every op index divisible by it.
		sabotage int
	}
	variants := []variant{
		{name: "fast", opts: rigOpts{}, cfg: Config{Forced: MethodFast}},
		{name: "offload", opts: rigOpts{}, cfg: Config{Forced: MethodOffload}},
		{name: "offload-multi", opts: rigOpts{heartbeat: hb, mergeSpan: 4}, cfg: Config{
			Forced: MethodOffload, MultiIssue: true, CacheRoot: true, NodeCache: 64, Prefetch: 8, HeartbeatInv: hb}},
		{name: "fetch", opts: rigOpts{fetchSlots: 32}, cfg: Config{Forced: MethodFetch, Fetch: true, maxChunkRetries: 3}, sabotage: 16},
		{name: "fetch-nomailbox", opts: rigOpts{}, cfg: Config{Forced: MethodFetch, Fetch: true}},
		{name: "sim-tcp", opts: rigOpts{tcpNet: true}, tcp: true},
		{name: "adaptive-3way", opts: rigOpts{heartbeat: hb, cores: 1, fetchSlots: 16}, cfg: Config{
			Adaptive: true, Fetch: true, MultiIssue: true, HeartbeatInv: hb, T: 0.02, TxT: 0.0005}},
	}
	for _, v := range variants {
		for _, batch := range []int{1, 8} {
			opts := v.opts
			opts.mode = server.ModeEvent
			opts.items = 3000
			r := newRig(t, opts)
			var c *Client
			if v.tcp {
				c = r.newTCPClient(t, "c0")
			} else {
				c = r.newClient(t, "c0", v.cfg)
			}
			var arm func(int)
			if v.sabotage > 0 {
				// Once armed, the saboteur waits for the server's next slot
				// grant and then rewrites every slot a few times: whichever
				// write lands after the server's makes the descriptor stale,
				// so the client's pull exhausts its retries and falls back.
				mb := r.srv.Mailbox()
				armed, base := false, uint64(0)
				arm = func(i int) {
					if i%v.sabotage == 0 && !armed {
						armed, base = true, mb.Granted()
					}
				}
				r.e.Spawn("saboteur", func(p *sim.Proc) {
					for {
						p.Sleep(250 * time.Nanosecond)
						if !armed || mb.Granted() == base {
							continue
						}
						armed = false
						for round := 0; round < 40; round++ {
							for s := 0; s < mb.Slots(); s++ {
								if _, err := mb.WriteResult(s, []byte("overwritten")); err != nil {
									t.Error(err)
								}
							}
							p.Sleep(250 * time.Nanosecond)
						}
					}
				})
			}
			digest := runGoldenScript(t, r, c, script, batch, arm)
			name := v.name
			if batch > 1 {
				name += "-b8"
			}
			got[name] = row{EndNs: int64(r.e.Now()), Digest: digest, Stats: c.Stats()}
		}
	}

	doc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	doc = append(doc, '\n')
	want, err := os.ReadFile("testdata/client-golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, want) {
		t.Errorf("client runs diverge from testdata/client-golden.json; got:\n%s", doc)
	}
}
