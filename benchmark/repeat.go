package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// spread summarises one metric on one workload over a set of runs the way
// the driver judges it: quartiles as Python's statistics.quantiles(v, n=4)
// gives them, and their distance as a share of the median.
type spread struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// IQRShare is (Q3-Q1)/median, the number the bound is compared with;
	// MaxRel is (max-min)/median.
	IQRShare float64 `json:"iqr_share"`
	MaxRel   float64 `json:"max_rel"`
	Bound    float64 `json:"bound,omitempty"`
	// Verdict: "steady" (spread under a third of the bound), "within"
	// (under the bound) or "over". Empty for per-layer metrics.
	Verdict string `json:"verdict,omitempty"`
}

// quartiles follows statistics.quantiles(v, n=4, method="exclusive").
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	slices.Sort(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func spreadOf(spec metricSpec, values []float64) spread {
	sp := spread{Unit: spec.Unit, Values: values, Bound: spec.Bound}
	sp.Q1, sp.Median, sp.Q3 = quartiles(values)
	if sp.Median != 0 {
		sp.IQRShare = (sp.Q3 - sp.Q1) / sp.Median
		sp.MaxRel = (slices.Max(values) - slices.Min(values)) / sp.Median
	}
	switch {
	case spec.Bound == 0:
	case sp.IQRShare <= spec.Bound/3:
		sp.Verdict = "steady"
	case sp.IQRShare <= spec.Bound:
		sp.Verdict = "within"
	default:
		sp.Verdict = "over"
	}
	return sp
}

// runSet is one set of runs: every workload on seeds first..first+n-1.
type runSet struct {
	Seeds     []int64                      `json:"seeds"`
	Workloads map[string]map[string]spread `json:"workloads"`
}

// drift compares the medians of two sets of the same code, as the driver
// does: the second may not be worse than the first by more than the bound.
type drift struct {
	Workload, Metric string
	First, Second    float64
	WorseBy          float64 `json:"worse_by"` // share of the first median; negative = better
	Bound            float64
	OK               bool `json:"ok"`
}

// baseline is the document -repeat prints and benchmark/results/baseline.json holds.
type baseline struct {
	Date       string   `json:"date"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seconds    int      `json:"run_seconds"`
	Traced     bool     `json:"traced"`
	Sets       []runSet `json:"sets"`
	Drift      []drift  `json:"drift,omitempty"`
	Flagged    []string `json:"flagged"` // end-to-end metric × workload pairs that broke a bound
}

// child runs one workload once in a fresh process, exactly as the driver
// does, and returns the metrics of its last stdout line.
func child(exe, name string, seed int64, seconds, trace int) (map[string]metricValue, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line struct {
		Correct bool                   `json:"correct"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: last stdout line: %w", name, seed, err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("%s seed %d: run reported incorrect outputs", name, seed)
	}
	return line.Metrics, nil
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	dirty, _ := exec.Command("git", "status", "--porcelain").Output()
	if len(bytes.TrimSpace(dirty)) > 0 {
		return strings.TrimSpace(string(out)) + "+uncommitted"
	}
	return strings.TrimSpace(string(out))
}

// runRepeat is the repeatability check: sets × n runs of each workload in
// child processes, the spread of every metric, and the drift between sets.
func runRepeat(name string, seed int64, seconds, trace, n, sets int, outPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames()
	if name != "" {
		if !knownWorkload(name) {
			return fmt.Errorf("-workload %q: want one of %v", name, names)
		}
		names = []string{name}
	}
	specs := endToEndSpecs
	if trace == 1 {
		specs = perLayerSpecs
	}
	doc := baseline{
		Date: time.Now().UTC().Format(time.RFC3339), Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seconds: seconds, Traced: trace == 1,
		Flagged: []string{},
	}
	for s := 0; s < sets; s++ {
		set := runSet{Workloads: map[string]map[string]spread{}}
		for k := 0; k < n; k++ {
			set.Seeds = append(set.Seeds, seed+int64(k))
		}
		for _, w := range names {
			values := map[string][]float64{}
			for _, sd := range set.Seeds {
				fmt.Fprintf(os.Stderr, "benchmark: set %d/%d %s seed %d\n", s+1, sets, w, sd)
				m, err := child(exe, w, sd, seconds, trace)
				if err != nil {
					return err
				}
				for _, spec := range specs {
					values[spec.Name] = append(values[spec.Name], m[spec.Name].Value)
				}
			}
			set.Workloads[w] = map[string]spread{}
			for _, spec := range specs {
				sp := spreadOf(spec, values[spec.Name])
				set.Workloads[w][spec.Name] = sp
				// The driver exempts setup_s from the spread rule, not from drift.
				if sp.Verdict == "over" && spec.Name != "setup_s" {
					doc.Flagged = append(doc.Flagged, fmt.Sprintf("set %d: %s × %s spread %.1f%% > bound %.0f%%",
						s+1, spec.Name, w, 100*sp.IQRShare, 100*spec.Bound))
				}
			}
		}
		doc.Sets = append(doc.Sets, set)
	}
	if sets > 1 && trace != 1 {
		first, last := doc.Sets[0], doc.Sets[sets-1]
		for _, w := range names {
			for _, spec := range specs {
				a, b := first.Workloads[w][spec.Name].Median, last.Workloads[w][spec.Name].Median
				worse := (b - a) / a
				if spec.Better == "higher" {
					worse = -worse
				}
				d := drift{w, spec.Name, a, b, worse, spec.Bound, worse <= spec.Bound}
				doc.Drift = append(doc.Drift, d)
				if !d.OK {
					doc.Flagged = append(doc.Flagged, fmt.Sprintf("drift: %s × %s second median worse by %.1f%% > bound %.0f%%",
						spec.Name, w, 100*worse, 100*spec.Bound))
				}
			}
		}
	}
	printSpreads(doc)
	if outPath != "" {
		if err := writeJSON(outPath, doc); err != nil {
			return err
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if len(doc.Flagged) > 0 {
		return fmt.Errorf("%d metric × workload pairs broke their bound: %v", len(doc.Flagged), doc.Flagged)
	}
	return nil
}

// printSpreads is the human-readable table, on stderr.
func printSpreads(doc baseline) {
	for si, set := range doc.Sets {
		for w, metrics := range set.Workloads {
			fmt.Fprintf(os.Stderr, "\nset %d  %s  (seeds %v, %d s window)\n", si+1, w, set.Seeds, doc.Seconds)
			fmt.Fprintf(os.Stderr, "  %-38s %14s %14s %14s %8s %8s  %s\n", "metric", "median", "q1", "q3", "iqr%", "max%", "")
			names := make([]string, 0, len(metrics))
			for name := range metrics {
				names = append(names, name)
			}
			slices.Sort(names)
			for _, name := range names {
				sp := metrics[name]
				fmt.Fprintf(os.Stderr, "  %-38s %14.4f %14.4f %14.4f %8.2f %8.2f  %s\n",
					name+" ("+sp.Unit+")", sp.Median, sp.Q1, sp.Q3, 100*sp.IQRShare, 100*sp.MaxRel, sp.Verdict)
			}
		}
	}
	for _, d := range doc.Drift {
		if !d.OK {
			fmt.Fprintf(os.Stderr, "drift  %s × %s: %.4f → %.4f (worse by %.1f%%)\n", d.Metric, d.Workload, d.First, d.Second, 100*d.WorseBy)
		}
	}
}
