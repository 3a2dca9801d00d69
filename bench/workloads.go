package main

import (
	"fmt"
	"strings"
	"time"

	"vread/internal/cluster"
	"vread/internal/core"
	"vread/internal/experiments"
	"vread/internal/mapred"
	"vread/internal/metrics"
	"vread/internal/sim"
	"vread/internal/workload"
)

// Workload sizes. A pass takes 0.3–3 s of host time on a 2-CPU x86 box, so
// a 25 s run repeats it about ten times or more and reports medians.
const (
	readScale  = 0.02 // Fig 11/12 cells: 5 files of ~21 MB each
	writeScale = 0.1  // Fig 13 cells: 5 files of ~107 MB each
	dfsioFiles = 5

	stormQPS      = 4000
	stormArrivals = 500 // a 0.3 s storm: calibration brackets a short cell closely
)

// workloadDef is one set of inputs the benchmark runs. pass runs every cell
// of the workload once for a seed; a run repeats passes.
type workloadDef struct {
	name string
	why  string
	pass func(seed int64, ps *pass)
}

var workloads = []workloadDef{
	{"dfsio-read-vanilla", "Fig 11/12 TestDFSIO read grid, vanilla: every byte crosses guest TCP, virtio and netsim; vRead's core is not built",
		func(seed int64, ps *pass) { dfsioReadGrid(seed, readScale, false, ps) }},
	{"dfsio-read-vread", "the same 18 read cells through vRead's ring, daemon and RDMA, so a core change shows here and not in vanilla",
		func(seed int64, ps *pass) { dfsioReadGrid(seed, readScale, true, ps) }},
	{"dfsio-write", "Fig 13 TestDFSIO write: HDFS pipeline, datanode appends, fsim and the vRead mount refresh",
		func(seed int64, ps *pass) { dfsioWriteGrid(seed, writeScale, ps) }},
	{"scale-storm", "1000-host federation under an open loop of small byte-checked vRead reads: per-request overhead, not bulk copies",
		func(seed int64, ps *pass) {
			ps.cells = append(ps.cells, scaleCell(seed, scaleStormConfig(stormArrivals), ps))
		}},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// cellResult is one independently built testbed's outcome: the simulated
// rows it rendered and its model counts, checked against bench/expected cell
// by cell, and the host wall time of its set-up and timed phases.
type cellResult struct {
	label       string
	rows        string
	model       map[string]int64 // keyed by modelNames; nil renders no model line
	ops         int              // map tasks or storm arrivals the cell ran
	err         error
	setup, wall time.Duration
}

// text is the cell's simulated output as bench/expected holds it: its rows,
// then its model counts. Both depend only on the seed, so a change that only
// speeds the simulator up leaves them identical.
func (c cellResult) text() string {
	if c.model == nil {
		return c.rows
	}
	var b strings.Builder
	b.WriteString(c.rows)
	b.WriteString("model")
	for _, n := range modelNames {
		fmt.Fprintf(&b, " %s=%d", n, c.model[n])
	}
	b.WriteString("\n")
	return b.String()
}

// pass is every cell of a workload run once: the unit a run repeats.
type pass struct {
	timed  span                     // host counters of the timed phases
	events uint64                   // simulated events fired in the timed phases
	phases map[string]time.Duration // host wall per named phase
	cells  []cellResult

	// A calibrated pass times the calibration kernel at each cell boundary.
	// refs holds its round times: refs[i] just before cell i, and a last
	// entry after the last cell.
	calibrated bool
	refs       [][]time.Duration
	lastCal    time.Time
}

func (ps *pass) phase(name string, from, to snap) {
	if ps.phases == nil {
		ps.phases = make(map[string]time.Duration)
	}
	ps.phases[name] += to.wall.Sub(from.wall)
}

// render is the pass's simulated output, the text bench/expected holds.
func (ps *pass) render() string {
	var b strings.Builder
	for _, c := range ps.cells {
		fmt.Fprintf(&b, "== %s\n%s", c.label, c.text())
	}
	return b.String()
}

// modelOf reads a finished single-Env cluster's device and daemon counters,
// keyed by modelNames. mgr is nil without vRead.
func modelOf(c *cluster.Cluster, mgr *core.Manager) map[string]int64 {
	m := make(map[string]int64)
	for _, h := range c.Hosts() {
		ds := h.Disk.Stats()
		m["disk_reads"] += ds.Reads
		m["disk_bytes_read"] += ds.BytesRead
		m["disk_writes"] += ds.Writes
		cs := h.Cache.Stats()
		m["host_cache_hit_bytes"] += cs.HitBytes
		m["host_cache_miss_bytes"] += cs.MissBytes
		m["nic_tx_frames"] += h.NIC.TxFrames()
		for _, vm := range h.VMs {
			m["guest_cache_hit_bytes"] += vm.Cache.Stats().HitBytes
			if mgr != nil {
				st := mgr.DaemonStats(vm.Name)
				m["ring_opens"] += st.Opens
				m["bytes_local"] += st.BytesLocal
				m["bytes_remote"] += st.BytesRemote
			}
		}
	}
	// QPs are private to core.Manager; every post and completion charges
	// cycles tagged rdma, so the tag's total moves with QP operations.
	for _, e := range c.Reg.Entities() {
		m["rdma_cycles"] += c.Reg.Cycles(e, metrics.TagRDMA)
	}
	return m
}

var scenarios = []experiments.Scenario{experiments.Colocated, experiments.Remote, experiments.Hybrid}

func sysName(vread bool) string {
	if vread {
		return "vRead"
	}
	return "vanilla"
}

// dfsioFileSize mirrors experiments.Options.scaled for TestDFSIO files.
func dfsioFileSize(scale float64) int64 {
	return max(int64(float64(1<<30)*scale), 16<<20)
}

// dfsioReadGrid runs one system's 18 cells of the Fig 11/12 grid in
// RunFig11and12's order.
func dfsioReadGrid(seed int64, scale float64, vread bool, ps *pass) {
	for _, sc := range scenarios {
		for _, vms := range []int{2, 4} {
			for _, freq := range experiments.PaperFreqs {
				ps.cells = append(ps.cells, dfsioReadCell(seed, scale, sc, vms, freq, vread, ps))
			}
		}
	}
}

// dfsioReadCell mirrors experiments.RunDFSIOPoint: build the testbed, write
// the dataset and drop caches (set-up), then read it cold and warm (timed).
func dfsioReadCell(seed int64, scale float64, scenario experiments.Scenario, vms int, freq int64, vread bool, ps *pass) cellResult {
	label := fmt.Sprintf("dfsio-%s-%dvms-%s-%s", scenario, vms, experiments.GHz(freq), sysName(vread))
	ps.calibrate()
	res := cellResult{label: label, ops: 3 * dfsioFiles}
	o := experiments.Options{Seed: seed, Scale: scale, FreqHz: freq, ExtraVMs: vms == 4, VRead: vread}

	t0 := takeSnap()
	tb := experiments.NewTestbed(o)
	defer tb.Close()
	tb.Place(scenario)
	t1 := takeSnap()

	cfg := workload.DFSIOConfig{Files: dfsioFiles, FileSize: dfsioFileSize(scale), Seed: uint64(seed)}
	trackers := []*mapred.Tracker{tb.Tracker}
	var t2, t3, t4 snap
	var ev0, ev1 uint64
	var cold, warm workload.DFSIOResult
	if err := tb.Run(label, 4*time.Hour, func(p *sim.Proc) error {
		if _, err := workload.RunDFSIOWrite(p, tb.Engine, trackers, cfg); err != nil {
			return err
		}
		tb.DropAllCaches()
		t2, ev0 = takeSnap(), tb.C.Env.Fired()
		var err error
		if cold, err = workload.RunDFSIORead(p, tb.Engine, trackers, cfg); err != nil {
			return err
		}
		t3 = takeSnap()
		warm, err = workload.RunDFSIORead(p, tb.Engine, trackers, cfg)
		t4, ev1 = takeSnap(), tb.C.Env.Fired()
		return err
	}); err != nil {
		res.err = err
		return res
	}
	ps.phase("build", t0, t1)
	ps.phase("dataset_write", t1, t2)
	ps.phase("cold_read", t2, t3)
	ps.phase("warm_read", t3, t4)
	res.setup, res.wall = t2.wall.Sub(t0.wall), t4.wall.Sub(t2.wall)
	ps.timed.add(t2, t4)
	ps.events += ev1 - ev0
	res.model = modelOf(tb.C, tb.Mgr)

	row := func(mode string, r workload.DFSIOResult) experiments.DFSIORow {
		return experiments.DFSIORow{
			Scenario:   scenario,
			VMs:        vms,
			FreqHz:     freq,
			System:     sysName(vread),
			Mode:       mode,
			Throughput: r.Throughput(),
			CPUTimeMs:  float64(r.CPUTime(freq)) / float64(time.Millisecond),
		}
	}
	res.rows = renderDFSIORows([]experiments.DFSIORow{row("read", cold), row("re-read", warm)})
	return res
}

func renderDFSIORows(rows []experiments.DFSIORow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %dvms %s %s %s throughput=%v cpu_ms=%v\n",
			r.Scenario, r.VMs, experiments.GHz(r.FreqHz), r.System, r.Mode, r.Throughput, r.CPUTimeMs)
	}
	return b.String()
}

// dfsioWriteGrid runs the 6 Fig 13 cells in RunFig13's order.
func dfsioWriteGrid(seed int64, scale float64, ps *pass) {
	for _, sc := range scenarios {
		for _, vread := range []bool{false, true} {
			ps.cells = append(ps.cells, dfsioWriteCell(seed, scale, sc, vread, ps))
		}
	}
}

// dfsioWriteCell mirrors one cell of experiments.RunFig13: build the testbed
// (set-up), then write the dataset (timed).
func dfsioWriteCell(seed int64, scale float64, scenario experiments.Scenario, vread bool, ps *pass) cellResult {
	label := fmt.Sprintf("fig13-%s-%s", scenario, sysName(vread))
	ps.calibrate()
	res := cellResult{label: label, ops: dfsioFiles}
	o := experiments.Options{Seed: seed, Scale: scale, FreqHz: 2_000_000_000, VRead: vread}

	t0 := takeSnap()
	tb := experiments.NewTestbed(o)
	defer tb.Close()
	tb.Place(scenario)
	t1 := takeSnap()

	cfg := workload.DFSIOConfig{Files: dfsioFiles, FileSize: dfsioFileSize(scale), Seed: uint64(seed)}
	var t2 snap
	var ev0, ev1 uint64
	var out workload.DFSIOResult
	if err := tb.Run(label, 4*time.Hour, func(p *sim.Proc) error {
		ev0 = tb.C.Env.Fired()
		r, err := workload.RunDFSIOWrite(p, tb.Engine, []*mapred.Tracker{tb.Tracker}, cfg)
		t2, ev1 = takeSnap(), tb.C.Env.Fired()
		out = r
		return err
	}); err != nil {
		res.err = err
		return res
	}
	ps.phase("build", t0, t1)
	ps.phase("write", t1, t2)
	res.setup, res.wall = t1.wall.Sub(t0.wall), t2.wall.Sub(t1.wall)
	ps.timed.add(t1, t2)
	ps.events += ev1 - ev0
	res.model = modelOf(tb.C, tb.Mgr)

	row := experiments.Fig13Row{Scenario: scenario, System: sysName(vread), Throughput: out.Throughput()}
	if tb.Mgr != nil {
		row.Refreshes = tb.Mgr.Refreshes()
	}
	res.rows = renderFig13Rows([]experiments.Fig13Row{row})
	return res
}

func renderFig13Rows(rows []experiments.Fig13Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %s throughput=%v refreshes=%d\n", r.Scenario, r.System, r.Throughput, r.Refreshes)
	}
	return b.String()
}
