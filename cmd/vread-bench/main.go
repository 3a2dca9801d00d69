// Command vread-bench regenerates any table or figure of the paper's
// evaluation and prints the rows next to the paper's reported values.
//
// Usage:
//
//	vread-bench [-exp ID|all] [-format table|csv] [-scale 0.05] [-seed 1]
//	            [-transport rdma|tcp] [-parallel 0] [-trace out.json] [-trace-every 1]
//
// The ids are the experiment registry's (internal/experiments), listed by
// vread-bench -h and in the error for an unknown one; -exp all runs every
// experiment in registry order.
//
// Scale 1.0 runs paper-sized datasets (5 GB TestDFSIO, 5 M HBase rows,
// 30 M Hive rows); the default 0.05 keeps everything under a few minutes.
//
// With -trace, every sampled request's trace is written as Chrome
// trace_event JSON (open in chrome://tracing or Perfetto) and the per-stage
// latency percentiles as CSV next to it (<out>.stages.csv). -trace-every N
// samples every Nth request; trace output is deterministic — same seed and
// flags give byte-identical files, including under -parallel (independent
// grid cells fan out across CPUs but results are collected by cell index).
//
// The simulator's own performance is measured by the benchmark in bench/
// (bash bench/run.sh), not by this command.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"vread"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vread-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vread-bench", flag.ExitOnError)
	exps := vread.Experiments()
	var ids []string
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	exp := fs.String("exp", "all", "experiment id ("+strings.Join(ids, ", ")+") or all")
	scale := fs.Float64("scale", 0.05, "dataset scale relative to paper sizes")
	format := fs.String("format", "table", "output format (table|csv)")
	seed := fs.Int64("seed", 1, "simulation seed")
	transport := fs.String("transport", "rdma", "remote daemon transport (rdma|tcp)")
	traceFile := fs.String("trace", "", "write request traces as Chrome trace_event JSON to this file (plus <file>.stages.csv)")
	traceEvery := fs.Int("trace-every", 1, "with -trace, sample every Nth request")
	parallel := fs.Int("parallel", 0, "experiment cells to run concurrently (0 = one per CPU, 1 = serial); results are byte-identical either way")
	fs.Parse(args)
	if *format != "table" && *format != "csv" {
		return fmt.Errorf("-format: unknown format %q (want table or csv)", *format)
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		return fmt.Errorf("-scale: %v is not a positive finite number", *scale)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel: %d is negative (0 = one per CPU)", *parallel)
	}
	if *traceEvery <= 0 {
		return fmt.Errorf("-trace-every: %d is not positive", *traceEvery)
	}
	if *exp != "all" {
		e, ok := vread.LookupExperiment(*exp)
		if !ok {
			return fmt.Errorf("-exp: unknown experiment %q (want %s or all)", *exp, strings.Join(ids, ", "))
		}
		exps = []vread.Experiment{e}
	}

	opt := vread.Options{Seed: *seed, Scale: *scale, Parallel: *parallel}
	var col *vread.TraceCollector
	if *traceFile != "" {
		col = &vread.TraceCollector{}
		opt.Traces = col
		opt.TraceEvery = *traceEvery
	}
	switch *transport {
	case "rdma":
		opt.VReadConfig.Transport = vread.TransportRDMA
	case "tcp":
		opt.VReadConfig.Transport = vread.TransportTCP
	default:
		return fmt.Errorf("-transport: unknown transport %q (want rdma or tcp)", *transport)
	}

	for _, e := range exps {
		out, err := render(e, opt, *format == "csv")
		if err != nil {
			return err
		}
		fmt.Print(out)
	}
	if col != nil {
		if err := writeTraces(*traceFile, col); err != nil {
			return err
		}
		fmt.Printf("wrote %d traces to %s (+ %s.stages.csv)\n", len(col.Traces), *traceFile, *traceFile)
	}
	return nil
}

// render runs experiment e and returns its block exactly as vread-bench
// prints it: a header line naming the id, scale and seed, then the rows.
func render(e vread.Experiment, opt vread.Options, csvOut bool) (string, error) {
	out, err := e.Render(opt, csvOut)
	if err != nil {
		return "", fmt.Errorf("%s: %w", e.ID, err)
	}
	return fmt.Sprintf("=== %s (scale %.3g, seed %d) ===\n%s\n", e.ID, opt.Scale, opt.Seed, out), nil
}

// writeTraces dumps the collected traces as Chrome trace_event JSON plus the
// per-stage latency percentile CSV.
func writeTraces(path string, col *vread.TraceCollector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := vread.WriteChromeTrace(f, col.Traces); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sf, err := os.Create(path + ".stages.csv")
	if err != nil {
		return err
	}
	if err := vread.WriteTraceStagesCSV(sf, vread.TraceStages(col.Traces)); err != nil {
		sf.Close()
		return err
	}
	return sf.Close()
}
