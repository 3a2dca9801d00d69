package experiments

import (
	"testing"

	"vread/internal/metrics"
)

// tiny returns options small enough for unit tests (shapes only).
func tiny() Options {
	return Options{Seed: 1, Scale: 0.02}
}

func TestFig2Shape(t *testing.T) {
	rows, err := RunFig2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("fig2 req=%-8d cached=%-5v interVM=%-12v local=%v", r.ReqSize, r.Cached, r.InterVM, r.Local)
		if r.InterVM <= r.Local {
			t.Errorf("req %d cached %v: inter-VM %v not slower than local %v", r.ReqSize, r.Cached, r.InterVM, r.Local)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	rows, err := RunFig3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	rate := map[[2]int64]float64{}
	for _, r := range rows {
		t.Logf("fig3 req=%-8d vms=%d rate=%.0f/s", r.ReqSize, r.VMs, r.Rate)
		rate[[2]int64{r.ReqSize, int64(r.VMs)}] = r.Rate
	}
	for _, req := range Fig3ReqSizes {
		r2, r4 := rate[[2]int64{req, 2}], rate[[2]int64{req, 4}]
		if r4 >= r2 {
			t.Errorf("req %d: 4-VM rate %.0f not below 2-VM rate %.0f", req, r4, r2)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	rows, err := RunFig6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkBreakdownSavings(t, rows)
}

// TestFig7Shape: with RDMA daemons on a remote read, vRead still costs less
// CPU than vanilla on both sides.
func TestFig7Shape(t *testing.T) {
	rows, err := RunFig7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkBreakdownSavings(t, rows)
}

// TestFig8Shape: with TCP daemons vRead still saves CPU on both sides, but
// its daemons' network stack costs more than RDMA's: on each side the
// vread-net share of Figure 8 exceeds the rdma share of Figure 7.
func TestFig8Shape(t *testing.T) {
	tcp, err := RunFig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkBreakdownSavings(t, tcp)
	rdma, err := RunFig7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	tcpBars, rdmaBars := breakdownBars(tcp), breakdownBars(rdma)
	for _, side := range []string{"client", "datanode"} {
		net := tcpBars[side+"/vRead"].Breakdown[metrics.TagVReadNet]
		r := rdmaBars[side+"/vRead"].Breakdown[metrics.TagRDMA]
		if net <= r {
			t.Errorf("%s: fig8 vread-net %.4f not above fig7 rdma %.4f", side, net, r)
		}
	}
}

// breakdownBars keys a figure's bars by "side/system".
func breakdownBars(rows []BreakdownRow) map[string]BreakdownRow {
	byKey := map[string]BreakdownRow{}
	for _, r := range rows {
		byKey[r.Side+"/"+r.System] = r
	}
	return byKey
}

// checkBreakdownSavings: vRead saves CPU on both sides (paper: ~40% client,
// ~65% datanode).
func checkBreakdownSavings(t *testing.T, rows []BreakdownRow) {
	t.Helper()
	t.Logf("\n%s", breakdownTable(rows).Text())
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byKey := breakdownBars(rows)
	if byKey["client/vRead"].Total() >= byKey["client/vanilla"].Total() {
		t.Error("vRead client CPU not below vanilla")
	}
	if byKey["datanode/vRead"].Total() >= byKey["datanode/vanilla"].Total() {
		t.Error("vRead daemon CPU not below vanilla datanode")
	}
}

func TestFig9Shape(t *testing.T) {
	rows, err := RunFig9(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("fig9 req=%-8d vms=%d cached=%-5v vanilla=%-12v vread=%v", r.ReqSize, r.VMs, r.Cached, r.Vanilla, r.VRead)
		if r.VRead >= r.Vanilla {
			t.Errorf("req %d vms %d cached %v: vRead %v not faster than vanilla %v",
				r.ReqSize, r.VMs, r.Cached, r.VRead, r.Vanilla)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	rows, err := RunFig13(tiny())
	if err != nil {
		t.Fatal(err)
	}
	byScenario := map[Scenario]map[string]Fig13Row{}
	for _, r := range rows {
		t.Logf("fig13 %-10s %-8s %.1f MB/s refreshes=%d", r.Scenario, r.System, r.Throughput, r.Refreshes)
		if byScenario[r.Scenario] == nil {
			byScenario[r.Scenario] = map[string]Fig13Row{}
		}
		byScenario[r.Scenario][r.System] = r
	}
	for s, m := range byScenario {
		va, vr := m["vanilla"].Throughput, m["vRead"].Throughput
		// Write-path overhead of the refresh must be negligible (±5%).
		if vr < va*0.95 {
			t.Errorf("%s: vRead write %.1f more than 5%% below vanilla %.1f", s, vr, va)
		}
		if m["vRead"].Refreshes == 0 {
			t.Errorf("%s: no refreshes recorded for vRead writes", s)
		}
	}
}

func TestDFSIOPointShape(t *testing.T) {
	opt := tiny()
	van, err := RunDFSIOPoint(opt, Colocated, 2, 2_000_000_000, false)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := RunDFSIOPoint(opt, Colocated, 2, 2_000_000_000, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(van, vr...) {
		t.Logf("dfsio %-10s %dvms %s %-8s %-7s thr=%6.1f MB/s cpu=%6.0f ms",
			r.Scenario, r.VMs, GHz(r.FreqHz), r.System, r.Mode, r.Throughput, r.CPUTimeMs)
	}
	// cold: vRead faster; warm: much faster; CPU lower in both modes.
	if vr[0].Throughput <= van[0].Throughput {
		t.Error("vRead cold DFSIO not faster")
	}
	if vr[1].Throughput <= van[1].Throughput {
		t.Error("vRead re-read DFSIO not faster")
	}
	if vr[0].CPUTimeMs >= van[0].CPUTimeMs {
		t.Error("vRead DFSIO CPU not lower")
	}
}

func TestTable2Shape(t *testing.T) {
	opt := tiny()
	rows, err := RunTable2(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("table2 %-16s vanilla=%6.2f MB/s vread=%6.2f MB/s (+%.1f%%)", r.Phase, r.Vanilla, r.VRead, r.Improvement())
		if r.VRead <= r.Vanilla {
			t.Errorf("%s: vRead %.2f not above vanilla %.2f", r.Phase, r.VRead, r.Vanilla)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	opt := tiny()
	rows, err := RunTable3(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("table3 %-14s vanilla=%-12v vread=%-12v (-%.1f%%)", r.Workload, r.Vanilla, r.VRead, r.Reduction())
		if r.VRead >= r.Vanilla {
			t.Errorf("%s: vRead %v not below vanilla %v", r.Workload, r.VRead, r.Vanilla)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	opt := tiny()
	for name, fn := range map[string]func(Options) ([]AblationRow, error){
		"ring":         RunAblationRingSlots,
		"direct":       RunAblationDirectRead,
		"transport":    RunAblationTransport,
		"shortcircuit": RunAblationShortCircuit,
	} {
		rows, err := fn(opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) == 0 {
			t.Fatalf("%s: no rows", name)
		}
		for _, r := range rows {
			t.Logf("%-16s %-28s %10.2f %s", r.Study, r.Config, r.Value, r.Unit)
			if r.Value <= 0 {
				t.Errorf("%s %s: non-positive value", r.Study, r.Config)
			}
		}
	}
}

func TestDeterministicExperiment(t *testing.T) {
	a, err := RunFig2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
