// vread-lint is the multichecker for the simulator's invariant analyzers:
//
//	determinism    no wall clock, no unseeded math/rand, no map-order output
//	simdiscipline  no raw goroutines/channels/sync/timers outside internal/sim
//	tracecharge    every span ended on all paths; no dropped trace contexts
//	hotalloc       //lint:hotpath functions (and their callees) never allocate
//	lockorder      sim.Mutex order is acyclic; no double-acquire; no leaked lock
//	faultpoint     fault-point declarations, Eval sites, and tests agree
//	errdiscipline  core errors are typed or %w-wrapped; compared with errors.Is
//	guesttaint     guest-written ring values pass a //lint:sanitizer before sinks
//	unitflow       cycles reach sim time only via //lint:converter helpers
//	lpowner        LP state stays on its Env; cross-LP only via LP.Send/coordinator
//
// Standalone:
//
//	vread-lint ./...                 # lint packages, exit 1 on findings
//	vread-lint -list ./...           # findings as file:line for editor jumps
//	vread-lint -json ./...           # findings as versioned, stable JSON
//	vread-lint -run lockorder ./...  # subset of analyzers
//	vread-lint -unused-allow ./...   # also flag stale //lint:allow comments
//
// As a vet tool (the go vet driver handles caching and test packages;
// whole-program analyzers are skipped because vet shows the tool one
// package at a time):
//
//	go vet -vettool=$(pwd)/bin/vread-lint ./...
//
// Suppress a deliberate violation with a trailing or preceding comment:
//
//	//lint:allow determinism(reason the wall clock is safe here)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"vread/internal/analysis"
	"vread/internal/analysis/all"
)

// version participates in go vet's content-based caching (-V=full).
const version = "v4"

func main() {
	flagV := flag.String("V", "", "print version (go vet protocol)")
	flagFlags := flag.Bool("flags", false, "describe flags as JSON (go vet protocol)")
	flagList := flag.Bool("list", false, "print findings as file:line only")
	flagJSON := flag.Bool("json", false, "print findings as versioned JSON on stdout")
	flagRun := flag.String("run", "", "comma-separated analyzer names to run (default all)")
	flagUnused := flag.Bool("unused-allow", false, "also report //lint:allow comments that suppress nothing (full suite only)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vread-lint [-list] [-json] [-run names] [-unused-allow] packages...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *flagV != "" {
		// go vet invokes `vettool -V=full` to key its cache.
		fmt.Printf("vread-lint version %s\n", version)
		return
	}
	if *flagFlags {
		// go vet invokes `vettool -flags` to learn which vet flags the tool
		// accepts; none of the standard ones apply.
		fmt.Println("[]")
		return
	}

	analyzers, err := selectAnalyzers(*flagRun)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vread-lint:", err)
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		// go vet -vettool mode: one package per invocation, described by a
		// JSON config file. Whole-program analyzers need every package at
		// once, so only the per-package subset runs here; `make lint` runs
		// the full suite standalone.
		diags, err := analysis.RunVet(args[0], perPackage(analyzers))
		if err != nil {
			fmt.Fprintln(os.Stderr, "vread-lint:", err)
			os.Exit(1)
		}
		report(diags, nil, *flagList, *flagJSON)
		if len(diags) > 0 {
			os.Exit(2)
		}
		return
	}

	if len(args) == 0 {
		args = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vread-lint:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(wd, args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vread-lint:", err)
		os.Exit(2)
	}
	if *flagUnused && *flagRun != "" {
		fmt.Fprintln(os.Stderr, "vread-lint: -unused-allow needs the full suite; drop -run")
		os.Exit(2)
	}
	diags, timings, err := analysis.RunSuiteTimed(analysis.NewProgram(pkgs), analyzers, *flagUnused)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vread-lint:", err)
		os.Exit(2)
	}
	report(diags, timings, *flagList, *flagJSON)
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func selectAnalyzers(runFlag string) ([]*analysis.Analyzer, error) {
	suite := all.Analyzers()
	if runFlag == "" {
		return suite, nil
	}
	byName := map[string]*analysis.Analyzer{}
	var names []string
	for _, a := range suite {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	sort.Strings(names) // the "have:" listing is user-facing; keep it scannable
	var picked []*analysis.Analyzer
	for _, name := range strings.Split(runFlag, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, strings.Join(names, ", "))
		}
		picked = append(picked, a)
	}
	return picked, nil
}

// perPackage filters out whole-program analyzers, which cannot run under
// the one-package-at-a-time vet protocol.
func perPackage(analyzers []*analysis.Analyzer) []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, a := range analyzers {
		if a.RunProgram == nil {
			out = append(out, a)
		}
	}
	return out
}

func report(diags []analysis.Diagnostic, timings []analysis.AnalyzerTiming, listOnly, asJSON bool) {
	if asJSON {
		os.Stdout.Write(analysis.MarshalReport(diags, timings))
		return
	}
	for _, d := range diags {
		if listOnly {
			fmt.Printf("%s:%d\n", d.Pos.Filename, d.Pos.Line)
			continue
		}
		fmt.Fprintln(os.Stderr, d.String())
	}
}
