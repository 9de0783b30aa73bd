// Command benchmark is the repo's performance benchmark: four workloads
// over loopback rpcnet, nine end-to-end metrics, and a traced run that
// adds the per-layer numbers. BENCHMARK.json at the repo root describes it
// to the driver; README.md in this directory describes it to people.
//
//	bash benchmark/run.sh --workload point-fast --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload point-fast --seed 1 --seconds 10 --trace 1
//	bash benchmark/run.sh --repeat 10 --sets 2   # the driver's repeatability check, all workloads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// outDir is where run documents and span files go, relative to the
// checkout root the benchmark is started from.
var outDir = filepath.Join("benchmark", "out")

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json); empty with -repeat runs all")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", runSeconds, "measured window length")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run plus layer probes")
		repeat  = flag.Int("repeat", 0, "run each workload this many times on consecutive seeds and report the spread of every metric")
		sets    = flag.Int("sets", 1, "with -repeat: repeat the whole set this many times and compare the medians of the first and last, as the driver does")
		out     = flag.String("out", "", "with -repeat: also write the spread report to this file")
		golden  = flag.Bool("update-golden", false, "with -trace 1: rewrite benchmark/golden/sim-replay.json instead of checking it")
		spec    = flag.Bool("print-spec", false, "print BENCHMARK.json as the program defines it, and exit")
		poll    = flag.Int("idle-poll", -1, "internal: run as the idle poller of this CPU (see idle_linux.go)")
	)
	flag.Parse()
	if *poll >= 0 {
		return idlePoll(*poll)
	}
	if *spec {
		b, err := benchmarkJSON()
		if err != nil {
			return err
		}
		_, err = fmt.Println(string(b))
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", *seconds)
	}
	if *repeat > 0 {
		return runRepeat(*name, *seed, *seconds, *trace, *repeat, max(*sets, 1), *out)
	}
	if !knownWorkload(*name) {
		return fmt.Errorf("-workload %q: want one of %v", *name, workloadNames())
	}
	stopPollers, err := startIdlePollers()
	if err != nil {
		return fmt.Errorf("idle pollers: %w", err)
	}
	defer stopPollers()
	var r *report
	window := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		r, err = runTraced(*name, *seed, window, fullScale, outDir, *golden)
	} else {
		r, err = runEndToEnd(*name, *seed, window, fullScale)
	}
	if err != nil {
		return err
	}
	if err := r.write(); err != nil {
		return err
	}
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d checks failed: %v", *name, r.Failed, r.Attempted, r.Notes)
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

func knownWorkload(name string) bool { return slices.Contains(workloadNames(), name) }

// write stores the full document under benchmark/out/ and prints the
// driver's line — exactly correct, attempted, failed, metrics — last on
// stdout.
func (r *report) write() error {
	if !r.Traced { // a traced run has already written its richer layers-*.json
		if err := writeJSON(filepath.Join(outDir, "result-"+r.Workload+".json"), r); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
