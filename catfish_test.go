package catfish_test

import (
	"testing"
	"time"

	catfish "github.com/catfish-db/catfish"
)

// The facade must be sufficient to build and drive a full cluster without
// touching internal packages (this is what examples/ and downstream users
// do).
func TestPublicAPIEndToEnd(t *testing.T) {
	reg, err := catfish.NewMemoryRegion(2048, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := catfish.NewTree(reg, catfish.TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	items := catfish.UniformRects(10_000, 0.001, 1)
	if err := tree.BulkLoad(items, 0); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	engine := catfish.NewEngine(1)
	net := catfish.NewNetwork(engine, catfish.InfiniBand100G)
	serverHost := net.NewHost("server", catfish.NewCPU(engine, 8))
	clientHost := net.NewHost("client", catfish.NewCPU(engine, 4))
	srv, err := catfish.NewServer(catfish.ServerConfig{
		Engine: engine, Host: serverHost, Tree: tree,
		Cost:              catfish.DefaultCostModel(),
		Mode:              catfish.ModeEvent,
		HeartbeatInterval: catfish.DefaultHeartbeatInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := srv.Connect(clientHost, net, 16)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := catfish.NewClient(catfish.ClientConfig{
		Engine: engine, Host: clientHost, Endpoint: ep,
		Cost:     catfish.DefaultCostModel(),
		Adaptive: true, MultiIssue: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	window := catfish.NewRect(0.4, 0.4, 0.45, 0.45)
	want, _, err := tree.SearchCollect(window)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	engine.Spawn("driver", func(p *catfish.Proc) {
		defer engine.Stop()
		items, method, err := cli.On(p).Search(window)
		if err != nil {
			t.Error(err)
			return
		}
		if method != catfish.MethodFast && method != catfish.MethodOffload {
			t.Errorf("unexpected method %v", method)
		}
		got = len(items)
		if err := cli.On(p).Insert(catfish.PointRect(0.9, 0.9), 1<<40); err != nil {
			t.Error(err)
		}
	})
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Errorf("remote search found %d, local %d", got, len(want))
	}
	if tree.Len() != 10_001 {
		t.Errorf("tree len = %d after insert", tree.Len())
	}
}

func TestPublicExperimentAPI(t *testing.T) {
	res, err := catfish.RunExperiment(catfish.ExperimentConfig{
		Scheme:            catfish.SchemeCatfish,
		Dataset:           catfish.UniformRects(5_000, 0.001, 2),
		Workload:          catfish.NewMix(catfish.UniformScale{Scale: 0.001}, catfish.SkewedInserts{Edge: 0.0001}, 0, 1<<32),
		NumClients:        4,
		RequestsPerClient: 50,
		Seed:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kops <= 0 || res.Latency.Count != 200 {
		t.Errorf("result = %+v", res)
	}
	pts, err := catfish.RunMicro(catfish.InfiniBand100G, catfish.MicroRDMARead, []int{64}, 5, 1)
	if err != nil || len(pts) != 1 {
		t.Fatalf("micro: %v %v", pts, err)
	}
}

func TestPublicGeometryAPI(t *testing.T) {
	r := catfish.NewRect(1, 1, 0, 0)
	if !r.Valid() || r.MinX != 0 {
		t.Errorf("NewRect did not normalize: %v", r)
	}
	m := catfish.MBR([]catfish.Rect{catfish.PointRect(0, 0), catfish.PointRect(1, 1)})
	if m.Area() != 1 {
		t.Errorf("MBR area = %v", m.Area())
	}
	if catfish.DefaultHeartbeatInterval != 10*time.Millisecond {
		t.Error("heartbeat default drifted from the paper")
	}
}

func TestPublicRealNetAPI(t *testing.T) {
	reg, err := catfish.NewMemoryRegion(512, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := catfish.NewTree(reg, catfish.TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(catfish.UniformRects(1000, 0.001, 1), 0); err != nil {
		t.Fatal(err)
	}
	srv, err := catfish.Listen("127.0.0.1:0", tree, catfish.NetServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck
	c, err := catfish.Connect([]string{srv.Addr().String()},
		catfish.WithForced(catfish.NetMethodOffload))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	items, method, err := c.Search(catfish.NewRect(0, 0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if method != catfish.NetMethodOffload || len(items) != 1000 {
		t.Errorf("method %v, items %d", method, len(items))
	}
}
