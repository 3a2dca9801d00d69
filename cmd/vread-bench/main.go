// Command vread-bench regenerates any table or figure of the paper's
// evaluation and prints the rows next to the paper's reported values.
//
// Usage:
//
//	vread-bench -exp fig2|fig3|fig6|fig7|fig8|fig9|fig11|fig12|fig13|table2|table3|ablations|faults|migrate|all
//	            [-scale 0.05] [-seed 1] [-transport rdma|tcp] [-parallel 0]
//	            [-trace out.json] [-trace-every 1]
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
	exp := fs.String("exp", "all", "experiment id (fig2..fig13, table2, table3, ablations, all)")
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

	opt := vread.Options{Seed: *seed, Scale: *scale, Parallel: *parallel}
	var col *vread.TraceCollector
	if *traceFile != "" {
		col = &vread.TraceCollector{}
		opt.Traces = col
		opt.TraceEvery = *traceEvery
	}
	switch *transport {
	case "rdma":
		opt.Transport = vread.TransportRDMA
	case "tcp":
		opt.Transport = vread.TransportTCP
	default:
		return fmt.Errorf("-transport: unknown transport %q (want rdma or tcp)", *transport)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = order
	} else if *exp == "fig12" {
		ids = []string{"fig11"} // figures 11 and 12 come from the same runs
	}
	for _, id := range ids {
		out, err := render(id, opt, *format == "csv")
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

// order is the -exp all sequence. fig12 has no entry of its own: figures 11
// and 12 come from the same runs, so -exp fig12 renders fig11.
var order = []string{"fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig11", "fig13", "table2", "table3", "ablations", "faults", "migrate"}

// runners maps an experiment id to a function that runs it and renders its
// rows as a table, or as CSV when csvOut is set.
var runners = map[string]func(o vread.Options, csvOut bool) (string, error){
	"fig2": func(o vread.Options, csvOut bool) (string, error) {
		rows, err := vread.RunFig2(o)
		if csvOut {
			return vread.CSVFig2(rows), err
		}
		return vread.FormatFig2(rows), err
	},
	"fig3": func(o vread.Options, csvOut bool) (string, error) {
		rows, err := vread.RunFig3(o)
		if csvOut {
			return vread.CSVFig3(rows), err
		}
		return vread.FormatFig3(rows), err
	},
	"fig6": breakdownRunner("Figure 6 (co-located)", vread.RunFig6),
	"fig7": breakdownRunner("Figure 7 (remote, RDMA)", vread.RunFig7),
	"fig8": breakdownRunner("Figure 8 (remote, TCP)", vread.RunFig8),
	"fig9": func(o vread.Options, csvOut bool) (string, error) {
		rows, err := vread.RunFig9(o)
		if csvOut {
			return vread.CSVFig9(rows), err
		}
		return vread.FormatFig9(rows), err
	},
	"fig11": dfsioRunner,
	"fig13": func(o vread.Options, csvOut bool) (string, error) {
		rows, err := vread.RunFig13(o)
		if csvOut {
			return vread.CSVFig13(rows), err
		}
		return vread.FormatFig13(rows), err
	},
	"table2": func(o vread.Options, csvOut bool) (string, error) {
		rows, err := vread.RunTable2(o)
		if csvOut {
			return vread.CSVTable2(rows), err
		}
		return vread.FormatTable2(rows), err
	},
	"table3": func(o vread.Options, csvOut bool) (string, error) {
		rows, err := vread.RunTable3(o)
		if csvOut {
			return vread.CSVTable3(rows), err
		}
		return vread.FormatTable3(rows), err
	},
	"ablations": ablationRunner,
	"migrate": func(o vread.Options, csvOut bool) (string, error) {
		rows, err := vread.RunMigrationSweep(o, vread.MigrationConfig{Seed: o.Seed})
		if csvOut {
			return vread.CSVMigration(rows), err
		}
		return vread.FormatMigration(rows), err
	},
	"faults": func(o vread.Options, csvOut bool) (string, error) {
		rows, err := vread.RunFaultSweep(o)
		if csvOut {
			return vread.CSVAblations(rows), err
		}
		return vread.FormatAblations(rows), err
	},
}

// render runs experiment id and returns its block exactly as vread-bench
// prints it: a header line naming the id, scale and seed, then the rows.
func render(id string, opt vread.Options, csvOut bool) (string, error) {
	fn, ok := runners[id]
	if !ok {
		return "", fmt.Errorf("unknown experiment %q (try: %v, all)", id, order)
	}
	out, err := fn(opt, csvOut)
	if err != nil {
		return "", fmt.Errorf("%s: %w", id, err)
	}
	return fmt.Sprintf("=== %s (scale %.3g, seed %d) ===\n%s\n", id, opt.Scale, opt.Seed, out), nil
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

func breakdownRunner(title string, run func(vread.Options) ([]vread.BreakdownRow, error)) func(vread.Options, bool) (string, error) {
	return func(o vread.Options, csvOut bool) (string, error) {
		rows, err := run(o)
		if csvOut {
			return vread.CSVBreakdowns(rows), err
		}
		return vread.FormatBreakdowns(title, rows), err
	}
}

func dfsioRunner(o vread.Options, csvOut bool) (string, error) {
	rows, err := vread.RunFig11and12(o)
	if csvOut {
		return vread.CSVDFSIO(rows), err
	}
	return vread.FormatDFSIO(rows), err
}

func ablationRunner(o vread.Options, csvOut bool) (string, error) {
	var all []vread.AblationRow
	for _, fn := range []func(vread.Options) ([]vread.AblationRow, error){
		vread.RunAblationRingSlots,
		vread.RunAblationDirectRead,
		vread.RunAblationTransport,
		vread.RunAblationShortCircuit,
		vread.RunAblationSRIOV,
	} {
		rows, err := fn(o)
		if err != nil {
			return "", err
		}
		all = append(all, rows...)
	}
	if csvOut {
		return vread.CSVAblations(all), nil
	}
	return vread.FormatAblations(all), nil
}
