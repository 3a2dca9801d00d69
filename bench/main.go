// Command vread-bench is the repository's benchmark. It runs one workload of
// the simulator for a fixed host time, checks every simulated row it
// produced, and reports host-side costs: end-to-end metrics by default and
// per-layer metrics from a separate profiled run (-trace 1).
//
//	bash bench/run.sh -workload dfsio-read-vanilla -seed 1 -seconds 25 -trace 0
//
// A run repeats the workload's pass (every cell of the workload, each on a
// freshly built testbed) until -seconds have elapsed. The first pass warms
// the process up and is checked but not timed. A time metric is each cell's
// median over the other passes, scaled to the reference host's speed by a
// calibration kernel timed around the cell, and summed over the cells. It
// prints one "workload metric value unit" line per metric and, as its last
// line, a JSON object with the fields correct, attempted, failed and
// metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"vread/bench/stats"
)

const (
	minPasses   = 3 // per untraced run, so every median has at least 3 samples
	minProfiled = 2 // per half of a traced run
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the benchmark's last output line.
type verdict struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result is what -out writes: the verdict, every metric the run measured
// (including workload-specific phases), and the run's identity.
type result struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Trace       bool   `json:"trace"`
	Passes      int    `json:"passes"`
	Fingerprint string `json:"fingerprint"`
	verdict
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vread-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "host seconds to repeat the workload's pass for")
	traceFlag := fs.Int("trace", 0, "1 profiles the passes, runs the layer microbenchmarks and reports per-layer metrics")
	out := fs.String("out", "", "also write the full result as JSON to this file")
	update := fs.Bool("update", false, "rewrite bench/expected/<workload>.seed<N>.txt from one pass and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "vread-bench: need -workload (%s), and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// The simulator is a single-threaded discrete-event engine. On one P a
	// sim.Proc handoff is a goroutine switch on one thread; on two it wakes
	// the other vCPU, whose latency on a shared host made pass times 1.5×
	// slower and twice as spread. The garbage collector shares the P.
	// shardSpeedup raises the limit for its own multi-core measurement.
	runtime.GOMAXPROCS(1)

	if *update {
		var ps pass
		w.pass(*seed, &ps)
		for _, c := range ps.cells {
			if c.err != nil {
				fmt.Fprintf(stderr, "vread-bench: %s: %v\n", c.label, c.err)
				return 1
			}
		}
		path := expectedPath(w.name, *seed)
		if err := os.WriteFile(path, []byte(ps.render()), 0o644); err != nil {
			fmt.Fprintf(stderr, "vread-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
		return 0
	}

	want, err := loadExpected(w.name, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "vread-bench: %v\n", err)
		return 1
	}
	res := result{Workload: w.name, Seed: *seed, Trace: *traceFlag == 1}
	res.Metrics = make(map[string]value)
	budget := time.Duration(*seconds * float64(time.Second))
	chk := newChecker(want)

	var plain, profiled []pass
	var profile []byte
	if res.Trace {
		plain = repeat(w, *seed, budget/2, minProfiled, false, chk)
		profile, err = profilePasses(func() { profiled = repeat(w, *seed, budget/2, minProfiled, false, chk) })
		if err != nil {
			fmt.Fprintf(stderr, "vread-bench: %v\n", err)
			return 1
		}
	} else {
		plain = repeat(w, *seed, budget, minPasses, true, chk)
	}
	res.Passes = len(plain) + len(profiled)
	res.Attempted, res.Failed = chk.attempted, chk.failed
	for _, msg := range chk.errors {
		fmt.Fprintf(stderr, "vread-bench: %s: %s\n", w.name, msg)
	}
	res.Fingerprint = fmt.Sprintf("%#016x", fingerprint(chk.first))

	if !res.Trace {
		e2e, err := endToEndMetrics(plain)
		if err != nil {
			fmt.Fprintf(stderr, "vread-bench: %v\n", err)
			return 1
		}
		for k, v := range e2e {
			res.Metrics[k] = v
		}
	}
	for k, v := range passMetrics(plain) {
		res.Metrics[k] = v
	}
	if res.Trace {
		layer, err := traceMetrics(*seed, plain, profiled, profile)
		if err != nil {
			fmt.Fprintf(stderr, "vread-bench: %v\n", err)
			return 1
		}
		for k, v := range layer {
			res.Metrics[k] = v
		}
	}
	res.Correct = res.Failed == 0 && len(chk.errors) == 0

	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%s %s %v %s\n", w.name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(stdout, "%s rows.fingerprint %s (%s, %d passes)\n", w.name, res.Fingerprint, chk.source(), res.Passes)

	if *out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "vread-bench: %v\n", err)
			return 1
		}
	}

	line := verdict{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]value)}
	for _, m := range reported(res.Trace) {
		v, ok := res.Metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			fmt.Fprintf(stderr, "vread-bench: metric %s (%s) not measured: %+v\n", m.Name, m.Unit, v)
			return 1
		}
		line.Metrics[m.Name] = v
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "vread-bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// repeat runs a warm-up pass and then timed passes, checking each pass's
// rows, and returns the timed ones. It runs at least least timed passes,
// and starts no pass that the last one's duration says would end past
// budget. calibrated times the calibration kernel around every cell, which
// only the end-to-end metrics use; a traced run leaves it out of the
// profile.
func repeat(w workloadDef, seed int64, budget time.Duration, least int, calibrated bool, chk *checker) []pass {
	start := time.Now()
	warm := pass{calibrated: calibrated}
	w.pass(seed, &warm)
	warm.calibrate()
	chk.check(&warm)
	last := time.Since(start)
	var passes []pass
	for len(passes) < least || time.Since(start)+last <= budget {
		t := time.Now()
		ps := pass{calibrated: calibrated}
		w.pass(seed, &ps)
		ps.calibrate()
		chk.check(&ps)
		passes = append(passes, ps)
		last = time.Since(t)
	}
	return passes
}

// profilePasses runs fn under the CPU profiler and returns the profile.
func profilePasses(fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// checker compares every pass's rows with bench/expected, cell by cell, and
// with the run's first pass. A cell that errs or mismatches fails all of
// its ops.
type checker struct {
	want              map[string]string // cell label → rows; nil for a seed without a file
	first             []cellResult
	firstEvents       uint64
	attempted, failed int
	errors            []string
}

func newChecker(want map[string]string) *checker { return &checker{want: want} }

func (c *checker) source() string {
	if c.want == nil {
		return "invariants only: no expected rows for this seed"
	}
	return "matches bench/expected"
}

func (c *checker) check(ps *pass) {
	firstPass := c.first == nil
	if firstPass {
		c.first, c.firstEvents = ps.cells, ps.events
	} else if ps.events != c.firstEvents {
		c.errors = append(c.errors, fmt.Sprintf("%d simulated events, the first pass fired %d", ps.events, c.firstEvents))
	}
	if c.want != nil && len(ps.cells) != len(c.want) {
		c.errors = append(c.errors, fmt.Sprintf("%d cells ran, bench/expected has %d", len(ps.cells), len(c.want)))
	}
	for i, cell := range ps.cells {
		c.attempted += cell.ops
		var msg string
		switch want, ok := c.want[cell.label]; {
		case cell.err != nil:
			msg = cell.err.Error()
		case c.want != nil && !ok:
			msg = "no expected rows for this cell"
		case c.want != nil && want != cell.text():
			msg = fmt.Sprintf("output differs from bench/expected:\n got: %q\nwant: %q", cell.text(), want)
		case !firstPass && (i >= len(c.first) || c.first[i].text() != cell.text()):
			msg = "output differs from the run's first pass"
		}
		if msg != "" {
			c.failed += cell.ops
			c.errors = append(c.errors, cell.label+": "+msg)
		}
	}
}

func fingerprint(cells []cellResult) uint64 {
	h := fnv.New64a()
	ps := pass{cells: cells}
	h.Write([]byte(ps.render()))
	return h.Sum64()
}

// endToEndMetrics are a run's wall and set-up seconds per pass, scaled to
// the reference host's speed (see calibrate.go), and the process's peak RSS.
// The unscaled seconds and the kernel's median round go to the text lines
// and the -out file.
func endToEndMetrics(passes []pass) (map[string]value, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	wall := func(c cellResult) time.Duration { return c.wall }
	setup := func(c cellResult) time.Duration { return c.setup }
	var rounds []float64
	for _, ps := range passes {
		for _, b := range ps.refs {
			for _, t := range b {
				rounds = append(rounds, t.Seconds())
			}
		}
	}
	return map[string]value{
		"wall_s":              {cellMedianSum(passes, wall, true), "s"},
		"peak_rss_mb":         {rss, "MB"},
		"setup_s":             {cellMedianSum(passes, setup, true), "s"},
		"wall_unscaled_s":     {cellMedianSum(passes, wall, false), "s"},
		"setup_unscaled_s":    {cellMedianSum(passes, setup, false), "s"},
		"calibration_round_s": {stats.Median(rounds), "s"},
	}, nil
}

// cellMedianSum is the sum over a pass's cells of the median, across the
// passes, of each cell's duration as of reads it, in seconds. Scaled, each
// duration is first multiplied by calNominal ÷ the kernel's round time
// around that cell. Taking the median per cell drops a slow stretch of the
// host that hit one cell of one pass, where the median of whole-pass sums
// would keep part of it.
func cellMedianSum(passes []pass, of func(cellResult) time.Duration, scaled bool) float64 {
	total := 0.0
	for i := range passes[0].cells {
		var xs []float64
		for _, ps := range passes {
			x := of(ps.cells[i]).Seconds()
			if scaled {
				x *= float64(calNominal) / float64(ps.ref(i))
			}
			xs = append(xs, x)
		}
		total += stats.Median(xs)
	}
	return total
}

// passMetrics are the phase, engine and model metrics every run reports.
// Counts come from the first pass; every pass must agree on them.
func passMetrics(passes []pass) map[string]value {
	m := make(map[string]value)
	phases := make(map[string][]float64)
	var perEvent, bytesPerEvent, evRate []float64
	var gcCycles, gcCPU, cpu float64
	for _, ps := range passes {
		for k, d := range ps.phases {
			phases[k] = append(phases[k], d.Seconds())
		}
		ev := float64(max(ps.events, 1))
		perEvent = append(perEvent, float64(ps.timed.allocs)/ev)
		bytesPerEvent = append(bytesPerEvent, float64(ps.timed.allocBytes)/ev)
		evRate = append(evRate, float64(ps.events)/max(ps.timed.wall.Seconds(), 1e-9))
		gcCycles += float64(ps.timed.gcCycles)
		gcCPU += ps.timed.gcCPU
		cpu += ps.timed.totalCPU
	}
	for k, xs := range phases {
		m["phase."+k+"_s"] = value{stats.Median(xs), "s"}
	}
	m["sim.events"] = value{float64(passes[0].events), "count"}
	m["sim.events_per_s"] = value{stats.Median(evRate), "1/s"}
	m["runtime.allocs_per_event"] = value{stats.Median(perEvent), "count"}
	m["runtime.alloc_bytes_per_event"] = value{stats.Median(bytesPerEvent), "B"}
	m["runtime.gc_cycles"] = value{gcCycles / float64(len(passes)), "count"}
	m["runtime.gc_cpu_pct"] = value{100 * gcCPU / max(cpu, 1e-9), "%"}
	for _, n := range modelNames {
		var total int64
		for _, c := range passes[0].cells {
			total += c.model[n]
		}
		m["model."+n] = value{float64(total), "count"}
	}
	return m
}
