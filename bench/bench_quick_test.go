package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/catfish-db/catfish/internal/cluster"
	"github.com/catfish-db/catfish/internal/stats"
	"github.com/catfish-db/catfish/internal/workload"
)

// quickOpts shrinks every figure to smoke-test size.
func quickOpts() Options { return Options{Quick: true, Seed: 1} }

// quickTables loads testdata/quick-tables.json: the rendered text of every
// quick-scale figure and simulated ablation table, captured before the
// cluster harness's run paths were folded into one deployment. The sim is
// deterministic, so a refactor must leave every table as it is; a deliberate
// behaviour change replaces the entry with the text the failing test prints.
var quickTables = sync.OnceValues(func() (map[string]string, error) {
	doc, err := os.ReadFile("testdata/quick-tables.json")
	if err != nil {
		return nil, err
	}
	var tables map[string]string
	return tables, json.Unmarshal(doc, &tables)
})

// checkQuickTable compares one rendered table against its pinned text.
func checkQuickTable(t *testing.T, name string, table fmt.Stringer) {
	t.Helper()
	want, err := quickTables()
	if err != nil {
		t.Fatal(err)
	}
	if got := table.String(); got != want[name] {
		t.Errorf("table %q diverges from testdata/quick-tables.json; got:\n%s", name, got)
	}
}

// checkSweepTables pins a five-scheme sweep's two tables and the summaries
// catfish-bench prints under them.
func checkSweepTables(t *testing.T, thrName, latName string, thr, lat fmt.Stringer, results []cluster.Result) {
	t.Helper()
	checkQuickTable(t, thrName, thr)
	checkQuickTable(t, latName, lat)
	checkQuickTable(t, thrName+"-speedups", Speedups(results))
	checkQuickTable(t, thrName+"-reads", ReadsPerSearch(results))
}

func TestFig2Quick(t *testing.T) {
	table, results, err := Fig2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 { // 2 scales x 2 client counts
		t.Fatalf("results = %d", len(results))
	}
	checkQuickTable(t, "fig2", table)
	out := table.String()
	for _, want := range []string{"scale", "serverTX_Gbps", "0.01", "1e-05"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// The bandwidth-bound scale must move more server TX bytes per op than
	// the CPU-bound scale at equal client count.
	if results[1].ServerTXGbps <= results[3].ServerTXGbps {
		t.Errorf("scale 0.01 TX %.3f should exceed scale 1e-05 TX %.3f",
			results[1].ServerTXGbps, results[3].ServerTXGbps)
	}
}

func TestFig7Quick(t *testing.T) {
	table, results, err := Fig7(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 { // 2 scales x 2 client counts x 3 variants
		t.Fatalf("results = %d", len(results))
	}
	// At the higher client count the event server must beat polling on
	// latency (cells are [polling, event, event-batched]).
	pollingHi, eventHi := results[3], results[4]
	if eventHi.Latency.Mean >= pollingHi.Latency.Mean {
		t.Errorf("event latency %v should beat polling %v at high client count",
			eventHi.Latency.Mean, pollingHi.Latency.Mean)
	}
	// The batched column really batched: containers were sent, and every
	// operation travelled inside one.
	batchedHi := results[5]
	if batchedHi.Batches == 0 || batchedHi.BatchedOps != batchedHi.Ops {
		t.Errorf("batched column sent %d containers carrying %d of %d ops",
			batchedHi.Batches, batchedHi.BatchedOps, batchedHi.Ops)
	}
	checkQuickTable(t, "fig7", table)
}

func TestFig8Quick(t *testing.T) {
	table, results, err := Fig8(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkQuickTable(t, "fig8", table)
	// Pairs are [single, multi]: multi-issue must not be slower anywhere.
	for i := 0; i+1 < len(results); i += 2 {
		if results[i+1].Latency.Mean > results[i].Latency.Mean {
			t.Errorf("multi-issue slower at pair %d: %v vs %v",
				i/2, results[i+1].Latency.Mean, results[i].Latency.Mean)
		}
	}
}

func TestFig9Quick(t *testing.T) {
	table, err := Fig9(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkQuickTable(t, "fig9", table)
	out := table.String()
	for _, series := range []string{"tcp-1g", "tcp-40g", "rdma-read", "rdma-write"} {
		if !strings.Contains(out, series) {
			t.Errorf("missing series %s", series)
		}
	}
}

func TestFig10And11Quick(t *testing.T) {
	thr, lat, results, err := Fig10And11(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// 3 scales x 2 client counts x 5 schemes.
	if len(results) != 30 {
		t.Fatalf("results = %d", len(results))
	}
	sp := Speedups(results).String()
	for _, base := range []string{"tcp-1g", "fastmsg", "offload"} {
		if !strings.Contains(sp, base) {
			t.Errorf("speedups missing %s:\n%s", base, sp)
		}
	}
	checkSweepTables(t, "fig10", "fig11", thr, lat, results)
}

func TestFig12And13Quick(t *testing.T) {
	thr, lat, results, err := Fig12And13(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkSweepTables(t, "fig12", "fig13", thr, lat, results)
	// Hybrid runs must actually insert.
	for _, r := range results {
		if r.ServerStats.Inserts == 0 {
			t.Errorf("%s: no inserts in hybrid run", r.Scheme)
		}
	}
}

func TestFig14Quick(t *testing.T) {
	thr, lat, results, err := Fig14(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 { // 2 client counts x 5 schemes
		t.Fatalf("results = %d", len(results))
	}
	checkSweepTables(t, "fig14a", "fig14b", thr, lat, results)
}

// TestAblationsQuick runs every ablation that lives on the simulated fabric
// and pins its table; autoscale and hotspot run on wall-clock TCP and stay
// out.
func TestAblationsQuick(t *testing.T) {
	for name, fn := range map[string]func(Options) (*stats.Table, error){
		"n":          AblationBackoffN,
		"t":          AblationThresholdT,
		"heartbeat":  AblationHeartbeat,
		"multiissue": AblationMultiIssueDepth,
		"batch":      AblationBatchSize,
		"chunk":      AblationChunkSize,
		"rootcache":  AblationRootCache,
		"nodecache":  AblationNodeCache,
		"prefetch":   AblationPrefetch,
		"predictor":  AblationPredictor,
		"fetch":      AblationFetch,
		"shards":     AblationShards,
		"failover":   AblationFailover,
		"moving":     AblationMovingObjects,
		"knn":        AblationKNN,
		"framework":  Framework,
	} {
		table, err := fn(quickOpts())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkQuickTable(t, "ablation-"+name, table)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.DatasetSize != 2_000_000 || o.Requests != 600 || len(o.Clients) != 4 {
		t.Errorf("defaults = %+v", o)
	}
	q := Options{Quick: true}.withDefaults()
	if q.DatasetSize != 50_000 || q.Requests != 100 {
		t.Errorf("quick = %+v", q)
	}
	f := Options{Full: true}.withDefaults()
	if f.DatasetSize != 2_000_000 || f.Requests != 10_000 {
		t.Errorf("full = %+v", f)
	}
}

// TestScenarioGolden pins the quick-scale moving-objects rows (MOVE,
// delete+insert, batched MOVE through client.ExecBatch) and the sharded
// kNN rows (the router's best-first cross-shard gather) to
// testdata/scenario-golden.json, captured before the sim and TCP routers
// were folded into one core. The simulation is deterministic and floats
// are written in Go's shortest round-trip form, so equal text means equal
// bits. A deliberate behaviour change regenerates the file from the "got"
// document this test prints.
func TestScenarioGolden(t *testing.T) {
	type row struct {
		Kops        float64
		Lat         stats.Summary
		ServerMoves uint64
		CPUUtil     float64
		FetchFrac   float64
		Fanout      float64
	}
	o := quickOpts().withDefaults()
	clients := o.ablationClients()
	got := map[string]row{}
	for _, mode := range []string{"move", "del+ins", "batched-move"} {
		res, err := runMovingObjects(o, o.DatasetSize, clients, mode)
		if err != nil {
			t.Fatalf("moving %s: %v", mode, err)
		}
		got["moving/"+mode] = row{Kops: res.kops, Lat: res.lat, ServerMoves: res.serverMoves, CPUUtil: res.cpuUtil}
	}
	data := workload.UniformRectsRand(rand.New(rand.NewSource(o.Seed)), o.DatasetSize, 0.0001)
	for _, k := range []int{1, 10, 100} {
		res, err := runKNN(o, data, clients, "sharded-4", k)
		if err != nil {
			t.Fatalf("knn sharded-4 k=%d: %v", k, err)
		}
		got[fmt.Sprintf("knn/sharded-4/k=%d", k)] = row{Kops: res.kops, Lat: res.lat, FetchFrac: res.fetchFrac, Fanout: res.fanout}
	}
	doc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	doc = append(doc, '\n')
	want, err := os.ReadFile("testdata/scenario-golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, want) {
		t.Errorf("scenario results diverge from testdata/scenario-golden.json; got:\n%s", doc)
	}
}
