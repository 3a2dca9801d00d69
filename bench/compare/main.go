// Command compare judges benchmark runs of a change against runs of its
// parent. Each argument is a directory of result files written by
// vread-bench -out; runs pair up by workload and seed.
//
//	cd bench && go run ./compare baseline/set1 baseline/set2
//
// For every workload × metric it prints each side's median and quartiles,
// the share of pairs the change wins, and a verdict: improved, regressed,
// unresolved or unchanged. An end-to-end metric regresses when its median
// is worse than the parent's by more than its bound in BENCHMARK.json and by
// more than its absolute floor below; compare then exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"vread/bench/stats"
)

// floors are the absolute amounts, in each end-to-end metric's unit, below
// which a worse median is never a regression: at a few hundred milliseconds
// per pass, a relative bound alone would flag scheduler jitter.
var floors = map[string]float64{
	"wall_s":      0.02,
	"peak_rss_mb": 2,
	"setup_s":     0.002,
}

type metricSpec struct {
	Name, Better string
	Bound        float64
}

type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
	PerLayer  []metricSpec            `json:"per_layer"`
}

// run is one result file.
type run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Correct  bool   `json:"correct"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "../BENCHMARK.json", "the benchmark's BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-spec BENCHMARK.json] <parent-dir> <change-dir>")
		return 2
	}
	var sp spec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &sp)
	}
	if err != nil {
		fmt.Fprintf(stderr, "compare: %s: %v\n", *specPath, err)
		return 1
	}
	parent, err := loadRuns(fs.Arg(0))
	if err == nil {
		var change map[runKey]map[int64]run
		if change, err = loadRuns(fs.Arg(1)); err == nil {
			return report(stdout, sp, parent, change)
		}
	}
	fmt.Fprintf(stderr, "compare: %v\n", err)
	return 1
}

// runKey groups runs: end-to-end metrics come from untraced runs, per-layer
// metrics from traced ones.
type runKey struct {
	workload string
	trace    bool
}

// loadRuns reads every *.json result in dir, by workload, trace and seed.
func loadRuns(dir string) (map[runKey]map[int64]run, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	runs := make(map[runKey]map[int64]run)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r run
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		k := runKey{r.Workload, r.Trace}
		if runs[k] == nil {
			runs[k] = make(map[int64]run)
		}
		if _, dup := runs[k][r.Seed]; dup {
			return nil, fmt.Errorf("%s: a second %s run with seed %d and trace %v", p, r.Workload, r.Seed, r.Trace)
		}
		runs[k][r.Seed] = r
	}
	return runs, nil
}

func report(w io.Writer, sp spec, parent, change map[runKey]map[int64]run) int {
	regressed := 0
	fmt.Fprintf(w, "%-20s %-34s %-32s %-32s %5s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range sp.Workloads {
		for _, k := range []runKey{{wl.Name, false}, {wl.Name, true}} {
			for _, side := range []map[int64]run{parent[k], change[k]} {
				for seed, r := range side {
					if !r.Correct {
						fmt.Fprintf(w, "%-20s seed %d (trace %v): run reported incorrect output\n", wl.Name, seed, r.Trace)
					}
				}
			}
		}
		for i, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
			endToEnd := i < len(sp.EndToEnd)
			k := runKey{wl.Name, !endToEnd}
			pv, cv := paired(parent[k], change[k], m.Name)
			if len(pv) == 0 {
				continue
			}
			b := stats.Bound{Lower: m.Better == "lower"}
			if endToEnd {
				b.Relative, b.Floor = m.Bound, floors[m.Name]
			}
			cmp := stats.Compare(pv, cv, b)
			if endToEnd && cmp.Verdict == stats.Regressed {
				regressed++
			}
			fmt.Fprintf(w, "%-20s %-34s %-32s %-32s %5.2f  %s\n", wl.Name, m.Name,
				quartiles(cmp.Parent), quartiles(cmp.Change), cmp.Wins, cmp.Verdict)
		}
	}
	fmt.Fprintf(w, "end-to-end rows regressed: %d\n", regressed)
	if regressed > 0 {
		return 1
	}
	return 0
}

// paired returns the metric's values on both sides for the seeds both
// sides ran, in seed order.
func paired(parent, change map[int64]run, metric string) (pv, cv []float64) {
	var seeds []int64
	for s := range parent {
		if _, ok := change[s]; ok {
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		a, okA := parent[s].Metrics[metric]
		b, okB := change[s].Metrics[metric]
		if okA && okB {
			pv = append(pv, a.Value)
			cv = append(cv, b.Value)
		}
	}
	return pv, cv
}

func quartiles(s stats.Summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}
