package experiments

import (
	"strings"
	"testing"

	"vread/internal/faults"
	"vread/internal/trace"
)

// TestDFSIODeterministicReplay runs one DFSIO point twice with identical
// options and asserts that the result CSV and both trace exports are
// byte-identical — the bit-reproducibility invariant the determinism
// analyzer exists to protect.
func TestDFSIODeterministicReplay(t *testing.T) {
	run := func() (csv, chrome, spans string) {
		t.Helper()
		col := &trace.Collector{}
		opt := Options{Seed: 7, Scale: 0.02, VRead: true, Traces: col, TraceEvery: 1}
		rows, err := RunDFSIOPoint(opt, Colocated, 2, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		var chromeBuf, spansBuf strings.Builder
		if err := trace.WriteChrome(&chromeBuf, col.Traces); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteSpansCSV(&spansBuf, col.Traces); err != nil {
			t.Fatal(err)
		}
		return dfsioTable(rows).CSV(), chromeBuf.String(), spansBuf.String()
	}

	csv1, chrome1, spans1 := run()
	csv2, chrome2, spans2 := run()

	if len(chrome1) == 0 || len(spans1) == 0 {
		t.Fatal("trace exports are empty; the runs collected no traces")
	}
	if csv1 != csv2 {
		t.Errorf("DFSIO CSV differs across identical runs:\n--- run 1\n%s\n--- run 2\n%s", csv1, csv2)
	}
	if chrome1 != chrome2 {
		t.Error("Chrome trace export differs across identical runs")
	}
	if spans1 != spans2 {
		t.Error("spans CSV export differs across identical runs")
	}
}

// TestParallelMatchesSerial asserts the fan-out's core guarantee: running a
// grid with Parallel > 1 yields byte-identical rows, CSV, and trace exports
// to the serial path (Parallel = 1), because cells are independent testbeds
// whose results and traces are collected by index, not completion order.
func TestParallelMatchesSerial(t *testing.T) {
	run := func(parallel int) (csv, chrome, spans string, fired int64) {
		t.Helper()
		col := &trace.Collector{}
		stats := &RunStats{}
		opt := Options{
			Seed: 7, Scale: 0.01, Traces: col, TraceEvery: 4,
			Parallel: parallel, Stats: stats,
		}
		rows, err := RunFig13(opt)
		if err != nil {
			t.Fatal(err)
		}
		var chromeBuf, spansBuf strings.Builder
		if err := trace.WriteChrome(&chromeBuf, col.Traces); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteSpansCSV(&spansBuf, col.Traces); err != nil {
			t.Fatal(err)
		}
		return fig13Table(rows).CSV(), chromeBuf.String(), spansBuf.String(), stats.Events()
	}

	serialCSV, serialChrome, serialSpans, serialFired := run(1)
	parCSV, parChrome, parSpans, parFired := run(8)

	if len(serialChrome) == 0 || len(serialSpans) == 0 {
		t.Fatal("serial trace exports are empty; the runs collected no traces")
	}
	if serialCSV != parCSV {
		t.Errorf("rows CSV differs between serial and parallel runs:\n--- serial\n%s\n--- parallel\n%s", serialCSV, parCSV)
	}
	if serialChrome != parChrome {
		t.Error("Chrome trace export differs between serial and parallel runs")
	}
	if serialSpans != parSpans {
		t.Error("spans CSV export differs between serial and parallel runs")
	}
	if serialFired == 0 || serialFired != parFired {
		t.Errorf("fired-event totals differ: serial %d, parallel %d", serialFired, parFired)
	}
}

// TestParallelMatchesSerialDelayGrid runs the same comparison over the
// Figure 9 latency grid, whose cells carry per-request latency recorders
// (means and percentiles are sensitive to any cross-cell interference).
func TestParallelMatchesSerialDelayGrid(t *testing.T) {
	run := func(parallel int) []Fig9Row {
		t.Helper()
		rows, err := RunFig9(Options{Seed: 3, Scale: 0.002, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial := run(1)
	par := run(8)
	if len(serial) == 0 || len(serial) != len(par) {
		t.Fatalf("row counts differ: serial %d, parallel %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Errorf("row %d differs:\nserial:   %+v\nparallel: %+v", i, serial[i], par[i])
		}
	}
}

// TestDFSIOFaultedReplayIsByteIdentical is the chaos determinism acceptance
// criterion at the experiment layer: a DFSIO run with faults armed must
// replay byte-identically from the same seed — rows, trace exports, and
// fault tallies all included. The fault schedule is part of the simulation,
// not noise on top of it.
func TestDFSIOFaultedReplayIsByteIdentical(t *testing.T) {
	spec, err := faults.ParseSpec(
		"disk.read.slow:p=0.2,delay=1ms;ring.doorbell.lost:p=0.2;net.frame.delay:p=0.2,delay=500us")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (csv, chrome, spans string) {
		t.Helper()
		col := &trace.Collector{}
		opt := Options{Seed: 7, Scale: 0.02, VRead: true, Traces: col, TraceEvery: 1, Faults: spec}
		rows, err := RunDFSIOPoint(opt, Colocated, 2, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		var chromeBuf, spansBuf strings.Builder
		if err := trace.WriteChrome(&chromeBuf, col.Traces); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteSpansCSV(&spansBuf, col.Traces); err != nil {
			t.Fatal(err)
		}
		return dfsioTable(rows).CSV(), chromeBuf.String(), spansBuf.String()
	}

	csv1, chrome1, spans1 := run()
	csv2, chrome2, spans2 := run()
	if csv1 != csv2 {
		t.Errorf("faulted DFSIO CSV differs across identical runs:\n--- run 1\n%s\n--- run 2\n%s", csv1, csv2)
	}
	if chrome1 != chrome2 {
		t.Error("faulted Chrome trace export differs across identical runs")
	}
	if spans1 != spans2 {
		t.Error("faulted spans CSV export differs across identical runs")
	}
	// The faulted run must actually diverge from the fault-free one, or the
	// injection never engaged.
	colClean := &trace.Collector{}
	cleanRows, err := RunDFSIOPoint(Options{Seed: 7, Scale: 0.02, VRead: true, Traces: colClean, TraceEvery: 1}, Colocated, 2, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if dfsioTable(cleanRows).CSV() == csv1 {
		t.Error("faulted run is identical to the fault-free run; faults never engaged")
	}
}

// TestFaultSweepRows smoke-checks the resilience ablation: the baseline
// reports no fault rows, every faulted profile reports its fired count, and
// the sweep is deterministic under the parallel runner.
func TestFaultSweepRows(t *testing.T) {
	profiles := []FaultProfile{
		{Name: "baseline"},
		{Name: "slow-disk", Spec: "disk.read.slow:p=0.3,delay=2ms"},
		{Name: "lost-doorbells", Spec: "ring.doorbell.lost:p=0.5"},
	}
	run := func(parallel int) []AblationRow {
		t.Helper()
		rows, err := RunFaultSweep(Options{Seed: 11, Scale: 0.01, Parallel: parallel}, profiles...)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	rows := run(1)
	if len(rows) != 1+2*3 {
		t.Fatalf("got %d rows: %+v", len(rows), rows)
	}
	byConfig := make(map[string]map[string]float64)
	for _, r := range rows {
		if r.Study != "fault-sweep" {
			t.Fatalf("unexpected study %q", r.Study)
		}
		if byConfig[r.Config] == nil {
			byConfig[r.Config] = make(map[string]float64)
		}
		byConfig[r.Config][r.Unit] = r.Value
	}
	if byConfig["baseline"]["MB/s cold remote read"] <= 0 {
		t.Fatal("baseline throughput missing")
	}
	for _, name := range []string{"slow-disk", "lost-doorbells"} {
		if byConfig[name]["faults fired"] == 0 {
			t.Errorf("profile %s never fired", name)
		}
		if thr := byConfig[name]["MB/s cold remote read"]; thr <= 0 {
			t.Errorf("profile %s throughput = %v", name, thr)
		}
	}
	par := run(4)
	for i := range rows {
		if rows[i] != par[i] {
			t.Errorf("row %d differs between serial and parallel sweep:\nserial:   %+v\nparallel: %+v", i, rows[i], par[i])
		}
	}
}
