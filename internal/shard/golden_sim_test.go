package shard

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// TestRouterSimGolden pins the simulated router's timing and counters to
// testdata/router-golden.json, captured before the sim and TCP routers
// were folded into one core: for each scripted run, the virtual time at
// which the script finished and the router's counters. The equivalence
// tests above check result sets; this one checks that every routed path —
// scatter-gather, owner writes, same- and cross-owner MOVE, best-first
// kNN, batched partition/merge/k-best — still issues the same round trips
// in the same order, which is what keeps every sharded figure
// bit-identical. A deliberate behaviour change regenerates the file from
// the "got" document this test prints.
func TestRouterSimGolden(t *testing.T) {
	type row struct {
		EndNs int64
		Stats RouterStats
	}
	got := map[string]row{}
	record := func(name string, d *simDeploy) {
		got[name] = row{EndNs: int64(d.e.Now()), Stats: d.router.Stats()}
	}
	const hbInv = 2 * time.Millisecond

	data := dataset(4000, 0.002, 11)
	script := genScript(data, 400, 12)
	for _, tr := range simTransports {
		d := buildSimDeploy(t, data, 4, tr, hbInv, 0)
		runScriptRouter(t, d, script, 1)
		record("mixed/"+tr.name+"/k4", d)
		d = buildSimDeploy(t, data, 4, tr, hbInv, 0)
		runScriptRouter(t, d, script, 8)
		record("mixed/"+tr.name+"/k4-b8", d)
	}

	moves := genSimMoveScript(99, 5)
	moves = append(moves, moveStep{search: true, q: geo.Rect{MinX: -1, MaxX: 2, MinY: -1, MaxY: 2}})
	for _, dialect := range []string{"move", "del+ins", "batched-move"} {
		d := buildSimDeploy(t, data, 4, simTransports[0], hbInv, 0)
		runSimMoveScript(t, d, moves, dialect)
		record("moves/"+dialect+"/k4", d)
	}

	// Plain and batched kNN: the best-first gather and the full fan-out
	// with k-best reduction.
	rng := rand.New(rand.NewSource(71))
	type query struct {
		k    int
		x, y float64
	}
	queries := make([]query, 96)
	for i := range queries {
		queries[i] = query{k: []int{1, 5, 32}[i%3], x: rng.Float64(), y: rng.Float64()}
	}
	for _, batched := range []bool{false, true} {
		d := buildSimDeploy(t, data, 4, simTransports[0], hbInv, 0)
		var runErr error
		d.e.Spawn("knn-golden", func(p *sim.Proc) {
			defer p.Engine().Stop()
			if !batched {
				for _, q := range queries {
					if _, _, err := d.router.On(p).Nearest(q.k, q.x, q.y); err != nil {
						runErr = err
						return
					}
				}
				return
			}
			var results []client.BatchResult
			for i := 0; i < len(queries); i += 8 {
				var ops []client.BatchOp
				for _, q := range queries[i : i+8] {
					ops = append(ops, client.BatchOp{Type: wire.MsgKNN, Rect: geo.PointRect(q.x, q.y), Ref: uint64(q.k)})
				}
				results = d.router.On(p).ExecBatch(ops, results)
				for _, res := range results {
					if res.Err != nil {
						runErr = res.Err
						return
					}
				}
			}
		})
		if err := d.e.Run(); err != nil {
			t.Fatal(err)
		}
		if runErr != nil {
			t.Fatal(runErr)
		}
		name := "knn/k4"
		if batched {
			name = "knn/k4-b8"
		}
		record(name, d)
	}

	doc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	doc = append(doc, '\n')
	want, err := os.ReadFile("testdata/router-golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, want) {
		t.Errorf("router runs diverge from testdata/router-golden.json; got:\n%s", doc)
	}
}
