// Command catfish-bench regenerates the paper's evaluation tables and
// figures on the simulated cluster.
//
// Usage:
//
//	catfish-bench -fig 10            # Fig 10+11 sweep (5 schemes)
//	catfish-bench -fig all           # every figure
//	catfish-bench -ablation all      # design-choice ablations
//	catfish-bench -fig 14 -quick     # smoke-test sizes
//	catfish-bench -fig 7 -full       # the paper's exact parameters (slow)
//
// Output is one aligned text table per figure; EXPERIMENTS.md records the
// paper-vs-measured comparison for the default configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/catfish-db/catfish/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "catfish-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var ablations []string
	for _, a := range bench.Ablations {
		ablations = append(ablations, a.Name)
	}
	var (
		fig      = flag.String("fig", "", "figure to regenerate: 2,7,8,9,10,11,12,13,14,all")
		ablation = flag.String("ablation", "", "comma-separated ablations to run, or all: "+strings.Join(ablations, ","))
		quick    = flag.Bool("quick", false, "smoke-test sizes")
		full     = flag.Bool("full", false, "the paper's exact parameters (slow)")
		dataset  = flag.Int("dataset", 0, "override dataset size")
		requests = flag.Int("requests", 0, "override requests per client")
		clients  = flag.String("clients", "", "override client sweep, e.g. 32,64,128")
		batch    = flag.Int("batch", 0, "client batch size B for batched columns (default 16)")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if *fig == "" && *ablation == "" {
		flag.Usage()
		return fmt.Errorf("pass -fig or -ablation")
	}

	opts := bench.Options{
		Quick:       *quick,
		Full:        *full,
		DatasetSize: *dataset,
		Requests:    *requests,
		BatchSize:   *batch,
		Seed:        *seed,
	}
	if *clients != "" {
		for _, part := range strings.Split(*clients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -clients value %q: %w", part, err)
			}
			opts.Clients = append(opts.Clients, n)
		}
	}

	if *fig != "" {
		// 10/11 and 12/13 are one experiment each (throughput + latency
		// views), so "all" lists them once.
		for _, f := range expand(*fig, []string{"2", "7", "8", "9", "10", "12", "14"}) {
			if err := runFig(f, opts); err != nil {
				return err
			}
		}
	}
	if *ablation != "" {
		for _, a := range expand(*ablation, ablations) {
			if err := runAblation(a, opts); err != nil {
				return err
			}
		}
	}
	return nil
}

func expand(sel string, all []string) []string {
	if sel == "all" {
		return all
	}
	return strings.Split(sel, ",")
}

func section(title string, started time.Time) {
	fmt.Printf("=== %s (%.1fs) ===\n", title, time.Since(started).Seconds())
}

func runFig(fig string, opts bench.Options) error {
	start := time.Now()
	switch fig {
	case "2":
		t, _, err := bench.Fig2(opts)
		if err != nil {
			return err
		}
		section("Fig 2: TCP-1G server CPU vs bandwidth saturation", start)
		fmt.Println(t)
	case "7":
		t, _, err := bench.Fig7(opts)
		if err != nil {
			return err
		}
		section("Fig 7: polling- vs event-based fast messaging", start)
		fmt.Println(t)
	case "8":
		t, _, err := bench.Fig8(opts)
		if err != nil {
			return err
		}
		section("Fig 8: offloading with multi-issue", start)
		fmt.Println(t)
	case "9":
		t, err := bench.Fig9(opts)
		if err != nil {
			return err
		}
		section("Fig 9: communication micro-benchmark", start)
		fmt.Println(t)
	case "10", "11":
		thr, lat, results, err := bench.Fig10And11(opts)
		if err != nil {
			return err
		}
		section("Fig 10: throughput, 100% search (Kops)", start)
		fmt.Println(thr)
		section("Fig 11: latency, 100% search (mean µs)", start)
		fmt.Println(lat)
		fmt.Println("Catfish speedups across the sweep:")
		fmt.Println(bench.Speedups(results))
		fmt.Println("Offloaded reads per search:")
		fmt.Println(bench.ReadsPerSearch(results))
	case "12", "13":
		thr, lat, results, err := bench.Fig12And13(opts)
		if err != nil {
			return err
		}
		section("Fig 12: throughput, 90% search + 10% insert (Kops)", start)
		fmt.Println(thr)
		section("Fig 13: latency, 90% search + 10% insert (mean µs)", start)
		fmt.Println(lat)
		fmt.Println("Catfish speedups across the sweep:")
		fmt.Println(bench.Speedups(results))
		fmt.Println("Offloaded reads per search:")
		fmt.Println(bench.ReadsPerSearch(results))
	case "14":
		thr, lat, results, err := bench.Fig14(opts)
		if err != nil {
			return err
		}
		section("Fig 14a: rea02 throughput (Kops)", start)
		fmt.Println(thr)
		section("Fig 14b: rea02 latency (mean µs)", start)
		fmt.Println(lat)
		fmt.Println("Catfish speedups across the sweep:")
		fmt.Println(bench.Speedups(results))
		fmt.Println("Offloaded reads per search:")
		fmt.Println(bench.ReadsPerSearch(results))
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

func runAblation(name string, opts bench.Options) error {
	for _, a := range bench.Ablations {
		if a.Name != name {
			continue
		}
		start := time.Now()
		t, err := a.Run(opts)
		if err != nil {
			return err
		}
		section("ablation: "+name, start)
		fmt.Println(t)
		return nil
	}
	return fmt.Errorf("unknown ablation %q", name)
}
