package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/catfish-db/catfish/internal/adaptive"
	"github.com/catfish-db/catfish/internal/cluster"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/nodecache"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/ringbuf"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
	"github.com/catfish-db/catfish/internal/workload"
)

// probes times tight loops over each layer's exported functions. Set-up
// is always outside the timed loop. Every probe runs in every traced run,
// whatever the workload, so the layer numbers of two runs compare
// directly.
type probes struct {
	vals   map[string]float64 // per-layer metrics, by spec name
	allocs map[string]float64 // allocations per op of each timing probe
	tr     *tracer
	v      *verdict
	err    error // the first probe failure; later probes are skipped
	shrink int   // divides iteration counts; above 1 only in the unit tests
}

var sink int // keeps probe results alive so the compiler cannot drop the calls

// time runs fn(0..n-1) under a span and records ns/op and allocs/op. One
// extra call, fn(n), comes first so scratch buffers grow outside the loop.
// The first error stops the loop and every later probe.
func (p *probes) time(name string, n int, fn func(i int) error) {
	if p.err != nil {
		return
	}
	n = p.iters(n)
	err := fn(n)
	var before, after runtime.MemStats
	p.tr.phase("probe:"+name, func() {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < n && err == nil; i++ {
			err = fn(i)
		}
		p.vals[name] = float64(time.Since(t0)) / float64(n)
		runtime.ReadMemStats(&after)
	})
	p.allocs[name] = float64(after.Mallocs-before.Mallocs) / float64(n)
	p.failed(err, name)
}

// iters is the loop length a probe nominally sized n actually runs.
func (p *probes) iters(n int) int { return max(n/p.shrink, 1) }

// failed records err as the suite's failure and reports whether the caller
// should stop.
func (p *probes) failed(err error, what string) bool {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("probe %s: %w", what, err)
	}
	return p.err != nil
}

func probeItems(n int) []wire.Item {
	items := make([]wire.Item, n)
	for i := range items {
		f := float64(i) / float64(n)
		items[i] = wire.Item{Rect: geo.NewRect(f, f, f+1e-4, f+1e-4), Ref: uint64(i)}
	}
	return items
}

func (p *probes) wire() {
	q := geo.NewRect(0.4, 0.4, 0.402, 0.402)
	var reqBuf, respBuf []byte
	p.time("wire.req_encode_decode_ns", 400_000, func(i int) error {
		reqBuf = wire.Request{Type: wire.MsgSearch, ID: uint64(i), Rect: q}.Encode(reqBuf[:0])
		req, err := wire.DecodeRequest(reqBuf)
		if err != nil {
			return err
		}
		sink += int(req.ID)
		return nil
	})
	// The unbatched client path: one allocating DecodeResponse per frame.
	items4 := probeItems(4)
	p.time("wire.resp4_encode_decode_ns", 400_000, func(i int) error {
		respBuf = wire.Response{ID: uint64(i), Status: wire.StatusOK, Final: true, Items: items4}.Encode(respBuf[:0])
		resp, err := wire.DecodeResponse(respBuf)
		if err != nil {
			return err
		}
		sink += len(resp.Items)
		return nil
	})
	p.vals["wire.allocs_per_msg"] = (p.allocs["wire.req_encode_decode_ns"] + p.allocs["wire.resp4_encode_decode_ns"]) / 2

	// A 500-item result travels as the server sends it: ~4 KB segments.
	const seg = 4096 / wire.ItemSize
	items500 := probeItems(500)
	frames := make([][]byte, (len(items500)+seg-1)/seg)
	p.time("wire.resp500_encode_ns", 20_000, func(int) error {
		rest := items500
		for k := range frames {
			n := min(seg, len(rest))
			frames[k] = wire.Response{ID: 1, Status: wire.StatusOK, Final: n == len(rest), Items: rest[:n]}.Encode(frames[k][:0])
			rest = rest[n:]
		}
		return nil
	})
	p.time("wire.resp500_decode_ns", 5_000, func(int) error {
		var out []wire.Item
		for _, f := range frames {
			resp, err := wire.DecodeResponse(f)
			if err != nil {
				return err
			}
			out = append(out, resp.Items...)
		}
		sink += len(out)
		return nil
	})

	// The batched hot path: 16 searches in one container each way.
	var reqEnc, respEnc wire.BatchEncoder
	var resp wire.Response
	p.time("wire.batch16_encode_decode_ns", 50_000, func(int) error {
		reqEnc.Reset(reqEnc.Buf[:0])
		for i := 0; i < 16; i++ {
			reqEnc.Begin()
			reqEnc.Buf = wire.Request{Type: wire.MsgSearch, ID: uint64(i + 1), Rect: q}.Encode(reqEnc.Buf)
			reqEnc.End()
		}
		it, err := wire.DecodeBatch(reqEnc.Bytes())
		if err != nil {
			return err
		}
		respEnc.Reset(respEnc.Buf[:0])
		for msg, ok := it.Next(); ok; msg, ok = it.Next() {
			req, err := wire.DecodeRequest(msg)
			if err != nil {
				return err
			}
			respEnc.Begin()
			respEnc.Buf = wire.Response{ID: req.ID, Status: wire.StatusOK, Final: true, Items: items4}.Encode(respEnc.Buf)
			respEnc.End()
		}
		rit, err := wire.DecodeBatch(respEnc.Bytes())
		if err != nil {
			return err
		}
		for msg, ok := rit.Next(); ok; msg, ok = rit.Next() {
			if err := wire.DecodeResponseInto(msg, &resp); err != nil {
				return err
			}
			sink += len(resp.Items)
		}
		return nil
	})
}

// probeTree bulk-loads the probe dataset (timed: rtree.bulkload_1m_s; the
// unit tests shrink the item count, not the name).
func (p *probes) probeTree(entries []rtree.Entry) (*rtree.Tree, error) {
	tree, err := newTree(len(entries))
	if err != nil {
		return nil, err
	}
	p.tr.phase("probe:rtree.bulkload_1m_s", func() {
		t0 := time.Now()
		err = tree.BulkLoad(entries, 0)
		p.vals["rtree.bulkload_1m_s"] = time.Since(t0).Seconds()
	})
	return tree, err
}

func (p *probes) rtree(tree *rtree.Tree, rng *rand.Rand, sc scale) {
	points := make([]geo.Rect, 4096)
	scans := make([]geo.Rect, 512)
	for i := range points {
		points[i] = fixedWindow(rng, pointEdge)
	}
	for i := range scans {
		scans[i] = fixedWindow(rng, sc.scanEdge)
	}
	var st rtree.OpStats
	count := func(geo.Rect, uint64) bool { sink++; return true }
	p.time("rtree.search_point_ns", 50_000, func(i int) error {
		s, err := tree.Search(points[i%len(points)], count)
		if err != nil {
			return err
		}
		st.NodesRead += s.NodesRead
		return nil
	})
	p.vals["rtree.nodes_per_search_point"] = float64(st.NodesRead) / float64(p.iters(50_000)+1)

	st = rtree.OpStats{}
	p.time("rtree.search_scan_ns", 4_000, func(i int) error {
		out, s, err := tree.SearchCollect(scans[i%len(scans)])
		if err != nil {
			return err
		}
		sink += len(out)
		st.NodesRead += s.NodesRead
		st.Results += s.Results
		return nil
	})
	p.vals["rtree.nodes_per_search_scan"] = float64(st.NodesRead) / float64(p.iters(4_000)+1)
	p.vals["rtree.results_per_node_read_scan"] = float64(st.Results) / float64(max(st.NodesRead, 1))

	p.time("rtree.knn10_ns", 5_000, func(int) error {
		nb, _, err := tree.Nearest(knnK, rng.Float64(), rng.Float64())
		if err != nil {
			return err
		}
		sink += len(nb)
		return nil
	})

	// A MOVE is a delete plus an insert under one latch; time the halves.
	const moves = 5_000
	fresh := make([]geo.Rect, moves+1)
	for i := range fresh {
		fresh[i] = fixedWindow(rng, datasetEdge)
	}
	written := 0
	p.time("rtree.insert_ns", moves, func(i int) error {
		s, err := tree.Insert(fresh[i], uint64(insertRefOff+i))
		if err != nil {
			return err
		}
		written += s.NodesWritten
		return nil
	})
	deleted := 0
	p.time("rtree.delete_ns", moves, func(i int) error {
		ok, s, err := tree.Delete(fresh[i], uint64(insertRefOff+i))
		if err != nil {
			return err
		}
		if ok {
			deleted++
		}
		written += s.NodesWritten
		return nil
	})
	p.v.check(deleted == p.iters(moves)+1, "rtree probe deleted %d of %d inserted entries", deleted, p.iters(moves)+1)
	p.vals["rtree.nodes_written_per_move"] = float64(written) / float64(p.iters(moves)+1)
}

func (p *probes) region(tree *rtree.Tree) {
	reg := tree.Region()
	raw := make([]byte, reg.ChunkSize())
	payload := make([]byte, 0, reg.PayloadSize())
	used := reg.Allocated()
	p.time("region.read_chunk_ns", 100_000, func(i int) error {
		out, _, err := reg.ReadChunk(i%used, raw, payload)
		if err != nil {
			return err
		}
		sink += len(out)
		return nil
	})
	vers := make([]byte, reg.VersionsSize())
	p.time("region.read_versions_ns", 400_000, func(i int) error {
		if err := reg.ReadVersions(i%used, vers); err != nil {
			return err
		}
		v, err := region.DecodeVersions(vers)
		if err != nil {
			return err
		}
		sink += int(v)
		return nil
	})
	if p.failed(reg.ReadChunkRaw(tree.RootChunk(), raw), "read root") {
		return
	}
	p.time("region.decode_chunk_ns", 400_000, func(int) error {
		out, _, err := region.DecodeChunk(raw, payload)
		if err != nil {
			return err
		}
		sink += len(out)
		return nil
	})
	var node rtree.Node
	body, _, err := region.DecodeChunk(raw, payload)
	if p.failed(err, "decode root") {
		return
	}
	p.time("rtree.node_decode_ns", 400_000, func(int) error {
		if err := rtree.DecodeNode(body, &node, tree.MaxEntries()); err != nil {
			return err
		}
		sink += len(node.Entries)
		return nil
	})

	scratch, err := region.New(64, 4096)
	for i := 0; i < 64 && err == nil; i++ {
		_, err = scratch.Alloc()
	}
	if p.failed(err, "scratch region") {
		return
	}
	full := make([]byte, scratch.PayloadSize())
	p.time("region.write_chunk_ns", 40_000, func(i int) error {
		if err := scratch.WriteChunk(i%64, full); err != nil {
			return err
		}
		return nil
	})

	// One fetch delivery: grant a slot, write a 20 KB result, pull and
	// assemble it as the client would, reclaim.
	const slots, slotChunks, resultBytes = 16, 64, 20_000
	mreg, err := region.New(slots*slotChunks, 4096)
	if p.failed(err, "mailbox region") {
		return
	}
	mb, err := region.NewMailbox(mreg, slots, slotChunks)
	if p.failed(err, "mailbox") {
		return
	}
	result := make([]byte, resultBytes)
	pulled := make([][]byte, region.MailboxChunks(resultBytes, mreg.PayloadSize()))
	for i := range pulled {
		pulled[i] = make([]byte, 0, mreg.PayloadSize())
	}
	p.time("region.mailbox_cycle_20k_ns", 4_000, func(int) error {
		slot, ok := mb.Grant()
		if !ok {
			return errors.New("mailbox exhausted")
		}
		ref, err := mb.WriteResult(slot, result)
		if err != nil {
			return err
		}
		for c := 0; c < ref.Chunks; c++ {
			if pulled[c], _, err = mreg.ReadChunk(slot*slotChunks+c, raw, pulled[c]); err != nil {
				return err
			}
		}
		out, err := region.AssembleMailbox(pulled[:ref.Chunks], ref.Seq, ref.Bytes)
		if err != nil {
			return err
		}
		sink += len(out)
		if !mb.Reclaim(slot, ref.Seq) {
			return errors.New("stale reclaim")
		}
		return nil
	})
}

func (p *probes) nodecache() {
	const capacity = 512
	hit := nodecache.New(capacity, time.Hour, 4096, 512)
	node := &rtree.Node{Level: 1}
	for i := 0; i < capacity; i++ {
		hit.Put(i, node, 2, 0)
	}
	p.time("nodecache.lookup_hit_ns", 1_000_000, func(i int) error {
		if _, o := hit.Lookup(i%capacity, time.Second); o != nodecache.Fresh {
			return errors.New("cache probe missed")
		}
		return nil
	})
	evict := nodecache.New(capacity, time.Hour, 4096, 512)
	p.time("nodecache.put_evict_ns", 1_000_000, func(i int) error {
		evict.Put(i, node, 2, 0)
		return nil
	})
}

func (p *probes) adaptive() {
	sw := adaptive.New(adaptive.Config{N: 8, T: 0.95, Inv: heartbeat}, rand.New(rand.NewSource(1)))
	hb := 0.5
	p.time("adaptive.decide_ns", 2_000_000, func(i int) error {
		// 20 µs per search: a fresh heartbeat every 500 decisions.
		if i%500 == 0 {
			hb = 0.5
		}
		c := sw.DecideMethod(time.Duration(i)*20*time.Microsecond,
			func() (float64, float64) { return hb, 0 }, func() { hb = 0 })
		sink += int(c)
		return nil
	})
}

func (p *probes) sim() {
	hops := p.iters(500_000)
	p.tr.phase("probe:sim.handoff_ns", func() {
		e := sim.New(1)
		e.Spawn("p", func(pr *sim.Proc) {
			for i := 0; i < hops; i++ {
				pr.Sleep(time.Nanosecond)
			}
		})
		t0 := time.Now()
		p.failed(e.Run(), "sim handoff")
		p.vals["sim.handoff_ns"] = float64(time.Since(t0)) / float64(hops)
	})
	procs, jobs := 32, p.iters(5_000)
	p.tr.phase("probe:sim.cpu_run_ns", func() {
		e := sim.New(1)
		cpu := sim.NewCPU(e, 8)
		for c := 0; c < procs; c++ {
			e.Spawn("c", func(pr *sim.Proc) {
				for i := 0; i < jobs; i++ {
					cpu.Run(pr, time.Microsecond)
				}
			})
		}
		t0 := time.Now()
		p.failed(e.Run(), "sim cpu")
		p.vals["sim.cpu_run_ns"] = float64(time.Since(t0)) / float64(procs*jobs)
	})
	msgs := p.iters(100_000)
	p.tr.phase("probe:ringbuf.send_recv_ns", func() {
		e := sim.New(1)
		n := fabric.NewNetwork(e, netmodel.InfiniBand100G)
		wqp, rqp := n.ConnectQP(n.NewHost("client", nil), n.NewHost("server", nil), 0)
		w, r, err := ringbuf.New(wqp, rqp, 256<<10)
		if p.failed(err, "ring") {
			return
		}
		got := 0
		e.Spawn("reader", func(pr *sim.Proc) {
			for got < msgs {
				r.CQ().Pop(pr)
				for {
					payload, err, ok := r.TryRecv()
					if err != nil || !ok {
						break
					}
					sink += len(payload)
					got++
				}
				if err := r.ReportHead(pr); err != nil {
					return
				}
			}
		})
		e.Spawn("writer", func(pr *sim.Proc) {
			msg := make([]byte, 64)
			for i := 0; i < msgs; i++ {
				if err := w.Send(pr, msg, uint64(i), true); err != nil {
					return
				}
			}
		})
		t0 := time.Now()
		p.failed(e.Run(), "ringbuf")
		p.vals["ringbuf.send_recv_ns"] = float64(time.Since(t0)) / float64(msgs)
		p.v.check(got == msgs, "ringbuf delivered %d of %d messages", got, msgs)
	})
}

// goldenSim is one frozen cluster.Run: the simulated numbers must repeat
// bit for bit, the wall-clock speed is the metric.
type goldenSim struct {
	Ops             uint64  `json:"ops"`
	Kops            float64 `json:"kops"`
	MeanLatencyNS   int64   `json:"mean_latency_ns"`
	OffloadFraction float64 `json:"offload_fraction"`
}

const (
	simItems   = 200_000
	simClients = 64
	simSeed    = 1 // fixed: the golden is exact, so these runs ignore --seed
)

var goldenPath = filepath.Join("benchmark", "golden", "sim-replay.json")

// cluster replays the simulated cluster under three schemes on one
// prebuilt tree. "catfish" is the sim-replay run: the adaptive switch is
// on, so both the ring-buffer fast path and the multi-issue offload path
// execute (the golden's offload_fraction shows the split). Request counts
// are frozen: they size each run to roughly a second of wall clock here.
func (p *probes) cluster(update bool) {
	if p.err != nil {
		return
	}
	entries := workload.UniformRects(simItems, datasetEdge, simSeed)
	tree, err := newTree(simItems)
	if err == nil {
		err = tree.BulkLoad(entries, 0)
	}
	if p.failed(err, "sim tree") {
		return
	}
	got := map[string]goldenSim{}
	for _, s := range []struct {
		metric   string
		scheme   cluster.Scheme
		requests int // per client
	}{
		{"cluster.fastmsg_req_per_wall_s", cluster.SchemeFastMessaging, 400},
		{"cluster.offload_req_per_wall_s", cluster.SchemeOffloading, 100},
		{"cluster.catfish_req_per_wall_s", cluster.SchemeCatfish, 600},
	} {
		p.tr.phase("probe:"+s.metric, func() {
			t0 := time.Now()
			res, err := cluster.Run(cluster.Config{
				Scheme:            s.scheme,
				Dataset:           entries,
				PrebuiltTree:      tree,
				Workload:          workload.NewMix(workload.UniformScale{Scale: 0.01}, workload.SkewedInserts{}, 0, 0),
				NumClients:        simClients,
				RequestsPerClient: p.iters(s.requests),
				Seed:              simSeed,
			})
			p.vals[s.metric] = float64(res.Ops) / time.Since(t0).Seconds()
			p.failed(err, s.scheme.Name)
			got[s.scheme.Name] = goldenSim{Ops: res.Ops, Kops: res.Kops,
				MeanLatencyNS: int64(res.Latency.Mean), OffloadFraction: res.OffloadFraction}
		})
	}
	if p.err != nil {
		return
	}
	if update {
		p.failed(writeJSON(goldenPath, got), "golden write")
		return
	}
	if p.shrink > 1 {
		return // a shrunk run is not the frozen run the golden describes
	}
	want := map[string]goldenSim{}
	b, err := os.ReadFile(goldenPath)
	if err == nil {
		err = json.Unmarshal(b, &want)
	}
	if p.failed(err, "golden") {
		return
	}
	for name, g := range got {
		p.v.check(g == want[name], "sim %s: got %+v, golden %+v", name, g, want[name])
	}
}

func (p *probes) shard(entries []rtree.Entry, rng *rand.Rand) {
	if p.err != nil {
		return
	}
	var m *shard.Map
	p.tr.phase("probe:shard.build_k4_ms", func() {
		t0 := time.Now()
		var err error
		m, err = shard.Build(entries, shard.Config{K: 4, MaxInsertEdge: datasetEdge})
		p.vals["shard.build_k4_ms"] = float64(time.Since(t0)) / 1e6
		p.failed(err, "shard build")
	})
	if p.err != nil {
		return
	}
	qs := make([]geo.Rect, 4096)
	for i := range qs {
		qs[i] = fixedWindow(rng, pointEdge)
	}
	var out []int
	p.time("shard.route_ns", 2_000_000, func(i int) error {
		out = m.Targets(qs[i%len(qs)], out[:0])
		sink += len(out) + m.Owner(qs[i%len(qs)])
		return nil
	})
}

// runProbes runs the whole suite and merges its numbers into r. It
// returns the allocations per op of every timing probe.
func runProbes(r *report, seed int64, sc scale, tr *tracer, updateGolden bool) (map[string]float64, error) {
	p := &probes{vals: map[string]float64{}, allocs: map[string]float64{}, tr: tr, v: &verdict{}, shrink: sc.probeShrink}
	rng := rand.New(rand.NewSource(seed*15485863 + 3))
	entries := workload.UniformRects(sc.items, datasetEdge, datasetSeed(seed))

	p.wire()
	tree, err := p.probeTree(entries)
	if err != nil {
		return nil, fmt.Errorf("probe tree: %w", err)
	}
	p.rtree(tree, rng, sc)
	p.region(tree)
	p.nodecache()
	p.adaptive()
	p.sim()
	p.cluster(updateGolden)
	p.shard(entries[:min(len(entries), 200_000)], rng)
	if p.err == nil {
		p.failed(p.net(tree, rng, sc), "rpcnet")
	}
	if p.err != nil {
		return nil, p.err
	}
	r.count(p.v)
	for name, v := range p.vals {
		if err := r.set(perLayerSpecs, name, v); err != nil {
			return nil, err
		}
	}
	return p.allocs, nil
}
