package bench

import (
	"fmt"

	"github.com/catfish-db/catfish/internal/cluster"
	"github.com/catfish-db/catfish/internal/stats"
	"github.com/catfish-db/catfish/internal/workload"
)

// evalSchemes are the five systems of the paper's §V-B/§V-C figures.
var evalSchemes = []cluster.Scheme{
	cluster.SchemeTCP1G,
	cluster.SchemeTCP40G,
	cluster.SchemeFastMessaging,
	cluster.SchemeOffloading,
	cluster.SchemeCatfish,
}

// evalScales are the three search workloads of Fig 10–13.
type evalScale struct {
	name string
	gen  workload.QueryGen
}

func evalScales() []evalScale {
	return []evalScale{
		{"0.00001", workload.UniformScale{Scale: 0.00001}},
		{"0.01", workload.UniformScale{Scale: 0.01}},
		{"powerlaw", workload.PowerLawScale{Min: 0.00001, Max: 0.01, Exponent: -0.99}},
	}
}

// sweep runs all schemes x client counts for one workload builder, reusing
// tree when the workload is read-only.
func (o Options) sweep(cache *datasetCache, insertFraction float64,
	scales []evalScale) (*stats.Table, *stats.Table, []cluster.Result, error) {
	thr := stats.NewTable("scale", "clients", "tcp-1g", "tcp-40g", "fastmsg", "offload", "catfish")
	lat := stats.NewTable("scale", "clients", "tcp-1g", "tcp-40g", "fastmsg", "offload", "catfish")
	var all []cluster.Result
	for _, sc := range scales {
		for _, n := range o.Clients {
			thrRow := []string{sc.name, fmt.Sprintf("%d", n)}
			latRow := []string{sc.name, fmt.Sprintf("%d", n)}
			for _, scheme := range evalSchemes {
				cfg := cluster.Config{
					Scheme:            scheme,
					Workload:          workload.NewMix(sc.gen, workload.SkewedInserts{Edge: 0.0001}, insertFraction, 1<<33),
					NumClients:        n,
					RequestsPerClient: o.Requests,
					HeartbeatInv:      o.HeartbeatInv,
					Seed:              o.Seed,
				}
				if insertFraction == 0 {
					tree, err := cache.uniformTree()
					if err != nil {
						return nil, nil, nil, err
					}
					cfg.PrebuiltTree = tree
				} else {
					cfg.Dataset = cache.uniformData()
					cfg.StagedWrites = true
				}
				res, err := cluster.Run(cfg)
				if err != nil {
					return nil, nil, nil, fmt.Errorf("%s scale=%s n=%d: %w", scheme.Name, sc.name, n, err)
				}
				all = append(all, res)
				thrRow = append(thrRow, fmtKops(res.Kops))
				latRow = append(latRow, fmtDur(res.Latency.Mean))
			}
			thr.AddRow(thrRow...)
			lat.AddRow(latRow...)
		}
	}
	return thr, lat, all, nil
}

// Fig10And11 reproduces the 100%-search evaluation: throughput (Fig 10)
// and average latency (Fig 11) for the five schemes, three request scales,
// and the client-count sweep.
func Fig10And11(o Options) (thr, lat *stats.Table, results []cluster.Result, err error) {
	o = o.withDefaults()
	return o.sweep(newCache(o), 0, evalScales())
}

// Fig12And13 reproduces the hybrid evaluation (90% search + 10% skewed
// inserts): throughput (Fig 12) and latency (Fig 13).
func Fig12And13(o Options) (thr, lat *stats.Table, results []cluster.Result, err error) {
	o = o.withDefaults()
	return o.sweep(newCache(o), 0.1, evalScales())
}

// Fig14 reproduces the rea02 real-dataset evaluation (§V-C): throughput
// (a) and latency (b) for the five schemes against the rea02-structured
// dataset with ~100-result queries.
func Fig14(o Options) (thr, lat *stats.Table, results []cluster.Result, err error) {
	o = o.withDefaults()
	cache := newCache(o)
	tree, err := cache.rea02Tree()
	if err != nil {
		return nil, nil, nil, err
	}
	queries := workload.NewRea02Queries(len(cache.rea02Data()))
	thr = stats.NewTable("clients", "tcp-1g", "tcp-40g", "fastmsg", "offload", "catfish")
	lat = stats.NewTable("clients", "tcp-1g", "tcp-40g", "fastmsg", "offload", "catfish")
	for _, n := range o.Clients {
		thrRow := []string{fmt.Sprintf("%d", n)}
		latRow := []string{fmt.Sprintf("%d", n)}
		for _, scheme := range evalSchemes {
			res, err := cluster.Run(cluster.Config{
				Scheme:            scheme,
				PrebuiltTree:      tree,
				Workload:          workload.NewMix(queries, workload.SkewedInserts{Edge: 0.0001}, 0, 1<<33),
				NumClients:        n,
				RequestsPerClient: o.Requests,
				HeartbeatInv:      o.HeartbeatInv,
				Seed:              o.Seed,
			})
			if err != nil {
				return nil, nil, nil, fmt.Errorf("fig14 %s n=%d: %w", scheme.Name, n, err)
			}
			results = append(results, res)
			thrRow = append(thrRow, fmtKops(res.Kops))
			latRow = append(latRow, fmtDur(res.Latency.Mean))
		}
		thr.AddRow(thrRow...)
		lat.AddRow(latRow...)
	}
	return thr, lat, results, nil
}

// ReadsPerSearch summarizes the offloaded read amplification of a result
// set grouped by (scale, clients) cells in submission order — one column
// per scheme, "-" where the scheme never offloaded. With the node cache
// enabled this is where its read reduction shows up in every figure sweep.
func ReadsPerSearch(results []cluster.Result) *stats.Table {
	n := len(evalSchemes)
	cols := []string{"clients"}
	for _, s := range evalSchemes {
		cols = append(cols, s.Name)
	}
	table := stats.NewTable(cols...)
	for i := 0; i+n <= len(results); i += n {
		cell := results[i : i+n]
		row := []string{fmt.Sprintf("%d", cell[0].Clients)}
		for _, r := range cell {
			if r.OffloadReadsPerSearch > 0 {
				row = append(row, fmt.Sprintf("%.2f", r.OffloadReadsPerSearch))
			} else {
				row = append(row, "-")
			}
		}
		table.AddRow(row...)
	}
	return table
}

// Speedups summarizes Catfish's gains over each baseline across a result
// set grouped by (scale, clients) — the paper's "up to N×" headline
// numbers, derived from the Fig 10/11 sweeps.
func Speedups(results []cluster.Result) *stats.Table {
	table := stats.NewTable("baseline", "max_throughput_gain", "max_latency_reduction")
	// Group runs into cells of len(evalSchemes) in submission order.
	n := len(evalSchemes)
	best := map[string][2]float64{}
	for i := 0; i+n <= len(results); i += n {
		cell := results[i : i+n]
		var catfish cluster.Result
		for _, r := range cell {
			if r.Scheme == "catfish" {
				catfish = r
			}
		}
		if catfish.Scheme == "" {
			continue
		}
		for _, r := range cell {
			if r.Scheme == "catfish" || r.Kops <= 0 || catfish.Latency.Mean <= 0 {
				continue
			}
			g := best[r.Scheme]
			if v := catfish.Kops / r.Kops; v > g[0] {
				g[0] = v
			}
			if v := float64(r.Latency.Mean) / float64(catfish.Latency.Mean); v > g[1] {
				g[1] = v
			}
			best[r.Scheme] = g
		}
	}
	for _, name := range []string{"tcp-1g", "tcp-40g", "fastmsg", "offload"} {
		g, ok := best[name]
		if !ok {
			continue
		}
		table.AddRow(name, fmt.Sprintf("%.2fx", g[0]), fmt.Sprintf("%.2fx", g[1]))
	}
	return table
}
