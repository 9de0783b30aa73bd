package bench

import (
	"fmt"
	"time"

	"github.com/catfish-db/catfish/internal/cluster"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/stats"
	"github.com/catfish-db/catfish/internal/workload"
)

// fmtKops renders a throughput cell.
func fmtKops(v float64) string { return fmt.Sprintf("%.1f", v) }

// fmtDur renders a latency cell in microseconds.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond))
}

// searchMix builds a search-only workload at the given generator.
func searchMix(q workload.QueryGen) *workload.Mix {
	return workload.NewMix(q, workload.SkewedInserts{Edge: 0.0001}, 0, 1<<32)
}

// Fig2 reproduces the motivation experiment (§I): the TCP/IP 1G server's
// normalized CPU utilization and NIC bandwidth as the client count grows,
// at request scales 0.01 (bandwidth-bound, Fig 2a) and 0.00001 (CPU-bound,
// Fig 2b).
func Fig2(o Options) (*stats.Table, []cluster.Result, error) {
	o = o.withDefaults()
	cache := newCache(o)
	tree, err := cache.uniformTree()
	if err != nil {
		return nil, nil, err
	}
	table := stats.NewTable("scale", "clients", "kops", "serverCPU%", "serverTX_Gbps", "serverRX_Gbps")
	var all []cluster.Result
	// The paper's x-axis is threads per client node; its cluster has 8
	// client nodes, so total concurrent clients reach 8x32 = 256.
	clients := []int{16, 32, 64, 128, 256}
	if o.Quick {
		clients = []int{8, 16}
	}
	for _, scale := range []float64{0.01, 0.00001} {
		for _, n := range clients {
			res, err := cluster.Run(cluster.Config{
				Scheme:            cluster.SchemeTCP1G,
				PrebuiltTree:      tree,
				Workload:          searchMix(workload.UniformScale{Scale: scale}),
				NumClients:        n,
				RequestsPerClient: o.Requests,
				Seed:              o.Seed,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("fig2 scale=%g n=%d: %w", scale, n, err)
			}
			all = append(all, res)
			table.AddRow(fmt.Sprintf("%g", scale), fmt.Sprintf("%d", n),
				fmtKops(res.Kops),
				fmt.Sprintf("%.1f", res.ServerCPUUtil*100),
				fmt.Sprintf("%.3f", res.ServerTXGbps),
				fmt.Sprintf("%.3f", res.ServerRXGbps))
		}
	}
	return table, all, nil
}

// Fig7 reproduces the polling- vs event-based fast-messaging comparison
// (§IV-B): average search latency (a) and throughput (b) on InfiniBand as
// the client count grows from 80 to 320, at scales 0.00001 and 0.01.
func Fig7(o Options) (*stats.Table, []cluster.Result, error) {
	o = o.withDefaults()
	cache := newCache(o)
	tree, err := cache.uniformTree()
	if err != nil {
		return nil, nil, err
	}
	table := stats.NewTable("scale", "clients", "polling_lat_us", "event_lat_us", "event_batch_lat_us",
		"polling_kops", "event_kops", "event_batch_kops")
	var all []cluster.Result
	clients := []int{80, 160, 240, 320}
	if o.Quick {
		clients = []int{16, 32}
	}
	// The third column batches B requests per ring write on the event
	// scheme (B=1 would reproduce the unbatched event column exactly).
	variants := []struct {
		scheme cluster.Scheme
		batch  int
	}{
		{cluster.SchemeFastMessaging, 1},
		{cluster.SchemeFastEvent, 1},
		{cluster.SchemeFastEvent, o.BatchSize},
	}
	for _, scale := range []float64{0.00001, 0.01} {
		for _, n := range clients {
			row := []string{fmt.Sprintf("%g", scale), fmt.Sprintf("%d", n)}
			var lats, kops []string
			for _, v := range variants {
				res, err := cluster.Run(cluster.Config{
					Scheme:            v.scheme,
					PrebuiltTree:      tree,
					Workload:          searchMix(workload.UniformScale{Scale: scale}),
					NumClients:        n,
					RequestsPerClient: o.Requests,
					BatchSize:         v.batch,
					Seed:              o.Seed,
				})
				if err != nil {
					return nil, nil, fmt.Errorf("fig7 %s n=%d: %w", v.scheme.Name, n, err)
				}
				all = append(all, res)
				lats = append(lats, fmtDur(res.Latency.Mean))
				kops = append(kops, fmtKops(res.Kops))
			}
			row = append(row, lats...)
			row = append(row, kops...)
			table.AddRow(row...)
		}
	}
	return table, all, nil
}

// Fig8 reproduces the multi-issue offloading experiment (§IV-C): one
// client's average offloaded search latency with and without multi-issue,
// at request scales from 0.00001 to 0.01.
func Fig8(o Options) (*stats.Table, []cluster.Result, error) {
	o = o.withDefaults()
	cache := newCache(o)
	tree, err := cache.uniformTree()
	if err != nil {
		return nil, nil, err
	}
	table := stats.NewTable("scale", "single_lat_us", "multi_lat_us", "reduction%")
	var all []cluster.Result
	for _, scale := range []float64{0.00001, 0.0001, 0.001, 0.01} {
		var lat [2]time.Duration
		for i, scheme := range []cluster.Scheme{cluster.SchemeOffloading, cluster.SchemeOffloadMulti} {
			res, err := cluster.Run(cluster.Config{
				Scheme:            scheme,
				PrebuiltTree:      tree,
				Workload:          searchMix(workload.UniformScale{Scale: scale}),
				NumClients:        1,
				RequestsPerClient: o.Requests,
				Seed:              o.Seed,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("fig8 %s scale=%g: %w", scheme.Name, scale, err)
			}
			all = append(all, res)
			lat[i] = res.Latency.Mean
		}
		reduction := 100 * (1 - float64(lat[1])/float64(lat[0]))
		table.AddRow(fmt.Sprintf("%g", scale), fmtDur(lat[0]), fmtDur(lat[1]),
			fmt.Sprintf("%.1f", reduction))
	}
	return table, all, nil
}

// Fig9 reproduces the communication micro-benchmark (§V-A): transfer
// latency (a) and throughput (b) for chunk sizes from 2 B to 8 MB over
// TCP-1G, TCP-40G, RDMA Read, and RDMA Write.
func Fig9(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	sizes := []int{2, 64, 2 << 10, 64 << 10, 1 << 20, 8 << 20}
	if o.Quick {
		sizes = []int{2, 2 << 10, 1 << 20}
	}
	iters := 50
	type series struct {
		name   string
		prof   netmodel.Profile
		method cluster.MicroMethod
	}
	all := []series{
		{"tcp-1g", netmodel.Ethernet1G, cluster.MicroTCP},
		{"tcp-40g", netmodel.Ethernet40G, cluster.MicroTCP},
		{"rdma-read", netmodel.InfiniBand100G, cluster.MicroRDMARead},
		{"rdma-write", netmodel.InfiniBand100G, cluster.MicroRDMAWrite},
	}
	table := stats.NewTable("size_bytes", "series", "latency_us", "gbps")
	for _, s := range all {
		pts, err := cluster.RunMicro(s.prof, s.method, sizes, iters, o.Seed)
		if err != nil {
			return nil, fmt.Errorf("fig9 %s: %w", s.name, err)
		}
		for _, pt := range pts {
			table.AddRow(fmt.Sprintf("%d", pt.Size), s.name,
				fmtDur(pt.Latency), fmt.Sprintf("%.3f", pt.Gbps))
		}
	}
	return table, nil
}
