package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestRollUpFixture(t *testing.T) {
	listing, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, cpu, err := rollUp(string(listing))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != 1.0 {
		t.Errorf("profiled cpu = %v s, want 1", cpu)
	}
	want := map[string]float64{
		"runtime_gc":     15, // a mark worker, and an assist even though it sits under mallocgc
		"runtime_malloc": 15,
		"runtime_sched":  25, // a channel receive, and a stack wholly inside the scheduler
		"sim":            15, // self time, and a generic method whose type names hold other packages
		"data":           8,  // memmove called from data is data's own time
		"metrics":        6,  // so is a map lookup
		"shard":          4,  // sort called from sim/shard
		"other":          12, // a package with no bucket, the benchmark's own code, the profiler
	}
	sum := 0.0
	for _, b := range hostBuckets {
		if got := shares[b]; math.Abs(got-want[b]) > 1e-9 {
			t.Errorf("%s = %v%%, want %v%%", b, got, want[b])
		}
		sum += shares[b]
	}
	if math.Abs(sum-100) > 1 {
		t.Errorf("shares sum to %v%%, want 100 ± 1", sum)
	}
	for b := range shares {
		if _, ok := want[b]; !ok {
			t.Errorf("unexpected bucket %q", b)
		}
	}
}

func TestRollUpEmptyListing(t *testing.T) {
	if _, _, err := rollUp("File: x\nType: cpu\n"); err == nil {
		t.Fatal("a listing without samples rolled up without error")
	}
}

func TestExpectedRoundTrip(t *testing.T) {
	ps := pass{cells: []cellResult{
		{label: "a", rows: "row 1\nrow 2\n"},
		{label: "b", rows: "row 3\n"},
	}}
	got, err := parseExpected(ps.render())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["a"] != "row 1\nrow 2\n" || got["b"] != "row 3\n" {
		t.Fatalf("parse(render) = %q", got)
	}
	if _, err := parseExpected("orphan row\n"); err == nil {
		t.Fatal("a row before any cell label parsed without error")
	}
}

// Every workload has committed rows for seeds 1 and 2.
func TestExpectedFilesPresent(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			cells, err := loadExpected(w.name, seed)
			if err != nil || len(cells) == 0 {
				t.Errorf("%s seed %d: %d expected cells, err %v", w.name, seed, len(cells), err)
			}
		}
	}
}

func TestCheckerFailsMismatchedCell(t *testing.T) {
	chk := newChecker(map[string]string{"a": "good\n", "b": "good\n"})
	chk.check(&pass{cells: []cellResult{{label: "a", rows: "good\n", ops: 3}, {label: "b", rows: "bad\n", ops: 5}}})
	if chk.attempted != 8 || chk.failed != 5 || len(chk.errors) != 1 {
		t.Fatalf("attempted %d failed %d errors %q", chk.attempted, chk.failed, chk.errors)
	}
	// Without expected rows, a later pass must repeat the first.
	chk = newChecker(nil)
	chk.check(&pass{cells: []cellResult{{label: "a", rows: "x\n", ops: 2}}})
	chk.check(&pass{cells: []cellResult{{label: "a", rows: "y\n", ops: 2}}})
	if chk.attempted != 4 || chk.failed != 2 {
		t.Fatalf("attempted %d failed %d", chk.attempted, chk.failed)
	}
}

// A slow stretch that hits one cell of one pass does not move the per-cell
// median sum; the median of whole-pass sums would take part of it.
func TestCellMedianSum(t *testing.T) {
	var passes []pass
	for _, walls := range [][2]time.Duration{{1, 10}, {2, 10}, {1, 90}, {9, 11}, {1, 10}} {
		ps := pass{cells: []cellResult{{wall: walls[0] * time.Second}, {wall: walls[1] * time.Second}}}
		for range 3 {
			ps.refs = append(ps.refs, []time.Duration{calNominal})
		}
		passes = append(passes, ps)
	}
	wall := func(c cellResult) time.Duration { return c.wall }
	for _, scaled := range []bool{false, true} {
		if got := cellMedianSum(passes, wall, scaled); got != 11 {
			t.Fatalf("cellMedianSum(scaled %v) = %v s, want 1 + 10", scaled, got)
		}
	}
	// Two passes on a host running at half speed double both the cells'
	// times and the kernel's; the scaled sum does not move.
	slow := passes[0]
	slow.cells = []cellResult{{wall: 2 * time.Second}, {wall: 20 * time.Second}}
	slow.refs = [][]time.Duration{{2 * calNominal}, {2 * calNominal}, {2 * calNominal}}
	passes = append(passes, slow, slow)
	if got := cellMedianSum(passes, wall, true); got != 11 {
		t.Fatalf("scaled cellMedianSum with slow passes = %v s, want 11", got)
	}
	if got := cellMedianSum(passes, wall, false); got != 13 {
		t.Fatalf("unscaled cellMedianSum with slow passes = %v s, want 2 + 11", got)
	}
}

// A boundary runs one kernel round plus one per calEvery since the previous
// boundary; an uncalibrated pass times nothing.
func TestCalibrateRounds(t *testing.T) {
	var plain pass
	plain.calibrate()
	if len(plain.refs) != 0 {
		t.Fatalf("uncalibrated pass recorded %v", plain.refs)
	}
	ps := pass{calibrated: true}
	ps.calibrate()
	ps.lastCal = time.Now().Add(-2 * calEvery)
	ps.calibrate()
	if len(ps.refs) != 2 || len(ps.refs[0]) != 1 || len(ps.refs[1]) != 3 {
		t.Fatalf("rounds per boundary = %v, want [1 3]", ps.refs)
	}
	for _, b := range ps.refs {
		for _, r := range b {
			if r <= 0 {
				t.Fatalf("kernel round took %v", r)
			}
		}
	}
	if ps.ref(0) <= 0 {
		t.Fatalf("ref(0) = %v", ps.ref(0))
	}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// BENCHMARK.json declares exactly the workloads and metrics this command
// runs and reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(spec.EndToEnd), len(endToEnd))
	}
	setupBound := 0.0
	for i, m := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, got, m)
		}
		if got.Name == "setup_s" {
			setupBound = got.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s has bound %v, above setup_s's %v", m.Name, m.Bound, setupBound)
		}
	}
	layer := perLayer()
	if len(spec.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(spec.PerLayer), len(layer))
	}
	for i, m := range layer {
		got := spec.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, got, m)
		}
	}
}
