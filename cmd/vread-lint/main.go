// vread-lint is the multichecker for the simulator's invariant analyzers:
//
//	determinism    no wall clock, unseeded math/rand, raw goroutines/channels/
//	               sync/timers or map-order output outside the engine
//	tracecharge    every span ended on all paths; no dropped trace contexts
//	hotalloc       //lint:hotpath functions (and their callees) never allocate
//	errdiscipline  core errors are typed or %w-wrapped; compared with errors.Is
//	guesttaint     guest-written ring values pass a //lint:sanitizer before sinks
//	unitflow       cycles reach sim time only via //lint:converter helpers
//
// Each analyzer has a defect only it catches in
// internal/analysis/all/mutations.txt (make lint-evidence proves them).
// Every analyzer sees the whole loaded program at once. One run prints each
// finding on stderr as file:line:col: analyzer: message (the form editors
// jump to and the CI problem matcher reads), reports every //lint:allow that
// suppressed nothing as an unused-allow finding, and exits 1 if anything was
// reported, 2 on a usage or load error:
//
//	vread-lint ./...                           # lint packages
//	vread-lint -json lint-report.json ./...    # also write the JSON report
//	vread-lint -run hotalloc,unitflow ./...    # subset of analyzers
//
// The JSON report is versioned and byte-stable apart from its timing rows; it
// is written whatever the verdict. Under -run, only allows naming the chosen
// analyzers are audited.
//
// Suppress a deliberate violation with a trailing or preceding comment:
//
//	//lint:allow determinism(reason the wall clock is safe here)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"vread/internal/analysis"
	"vread/internal/analysis/all"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the whole command: it returns the exit status and writes findings
// and errors to stderr.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("vread-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonPath := fs.String("json", "", "also write the findings as versioned JSON to this `file`")
	runNames := fs.String("run", "", "comma-separated analyzer `names` to run (default all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: vread-lint [-json file] [-run names] packages...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "vread-lint:", err)
		return 2
	}

	analyzers, err := selectAnalyzers(*runNames)
	if err != nil {
		return fail(err)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	pkgs, err := analysis.Load(wd, patterns)
	if err != nil {
		return fail(err)
	}
	diags, timings, err := analysis.RunSuite(analysis.NewProgram(pkgs), analyzers)
	if err != nil {
		return fail(err)
	}
	for _, d := range diags {
		fmt.Fprintln(stderr, d.String())
	}
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, analysis.MarshalReport(diags, timings), 0o666); err != nil {
			return fail(err)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
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
