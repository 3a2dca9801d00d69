package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"vread/internal/metrics"
)

// Experiment is one experiment of the paper's evaluation, or one of this
// reproduction's ablations. ID is its vread-bench -exp id. Title and Paper
// are the first and last lines of its text form, Paper being the result the
// paper reports; an empty one prints no line. Run runs it and returns its
// rows as a Table.
type Experiment struct {
	ID    string
	Title string
	Paper string
	Run   func(Options) (Table, error)
}

// Registry returns every experiment, in vread-bench -exp all order. Adding
// an experiment is adding its entry here. It is a function, not a variable,
// so callers cannot change the registry, and a binary that never asks for
// it (the benchmark in bench/) does not link every experiment's code.
func Registry() []Experiment {
	return []Experiment{
		{
			ID:    "fig2",
			Title: "Figure 2 — HDFS-in-co-located-VM vs local FS read delay (ms/request)",
			Paper: "inter-VM delay significantly higher than local for all cases",
			Run:   tabulate(RunFig2, fig2Table),
		},
		{
			ID:    "fig3",
			Title: "Figure 3 — netperf TCP_RR transaction rate (per second)",
			Paper: "~20% transaction-rate drop with 2 extra lookbusy VMs",
			Run:   tabulate(RunFig3, fig3Table),
		},
		{
			ID:    "fig6",
			Title: "Figure 6 (co-located) — CPU utilization breakdown (fraction of one core)",
			Paper: paperCPUSavings,
			Run:   tabulate(RunFig6, breakdownTable),
		},
		{
			ID:    "fig7",
			Title: "Figure 7 (remote, RDMA) — CPU utilization breakdown (fraction of one core)",
			Paper: paperCPUSavings,
			Run:   tabulate(RunFig7, breakdownTable),
		},
		{
			ID:    "fig8",
			Title: "Figure 8 (remote, TCP) — CPU utilization breakdown (fraction of one core)",
			Paper: paperCPUSavings,
			Run:   tabulate(RunFig8, breakdownTable),
		},
		{
			ID:    "fig9",
			Title: "Figure 9 — co-located HDFS read delay, vanilla vs vRead (ms/request)",
			Paper: "delay reduced up to 40% (2 VMs) / 50% (4 VMs)",
			Run:   tabulate(RunFig9, fig9Table),
		},
		{
			ID:    "fig11", // Lookup also answers fig12 with this entry
			Title: "Figures 11+12 — TestDFSIO throughput (MB/s) and CPU time (ms)",
			Paper: "read throughput +20% (3.2GHz) … +41% (1.6GHz); +65% with 4 VMs; re-read throughput improved up to ~150%",
			Run:   tabulate(RunFig11and12, dfsioTable),
		},
		{
			ID:    "fig13",
			Title: "Figure 13 — TestDFSIO write throughput (MB/s)",
			Paper: "write-path refresh overhead negligible",
			Run:   tabulate(RunFig13, fig13Table),
		},
		{
			ID:    "table2",
			Title: "Table 2 — HBase PerformanceEvaluation (MB/s)",
			Paper: "Scan +27.3%, SequentialRead +23.6%, RandomRead +17.3%",
			Run:   tabulate(RunTable2, table2Table),
		},
		{
			ID:    "table3",
			Title: "Table 3 — query/export completion time",
			Paper: "Hive select −21.3%, Sqoop export −11.3%",
			Run:   tabulate(RunTable3, table3Table),
		},
		{
			ID:    "ablations",
			Title: ablationsTitle,
			Run: tabulate(func(o Options) ([]AblationRow, error) {
				var all []AblationRow
				for _, run := range []func(Options) ([]AblationRow, error){
					RunAblationRingSlots, RunAblationDirectRead, RunAblationTransport,
					RunAblationShortCircuit, RunAblationSRIOV,
				} {
					rows, err := run(o)
					if err != nil {
						return nil, err
					}
					all = append(all, rows...)
				}
				return all, nil
			}, ablationTable),
		},
		{
			ID:    "faults",
			Title: ablationsTitle,
			Run: tabulate(func(o Options) ([]AblationRow, error) {
				return RunFaultSweep(o)
			}, ablationTable),
		},
		{
			// The sweep's text form is MigrationTable's grid alone, as vread-sim
			// prints it.
			ID: "migrate",
			Run: tabulate(func(o Options) ([]MigrationRow, error) {
				return RunMigrationSweep(o, MigrationConfig{})
			}, MigrationTable),
		},
	}
}

const (
	paperCPUSavings = "~40% client / ~65% datanode CPU savings"
	ablationsTitle  = "Ablations — design-choice sweeps"
)

// Lookup returns the Registry entry with the given id. fig12 has no entry of
// its own: figures 11 and 12 come from the same runs, so it is fig11's.
func Lookup(id string) (Experiment, bool) {
	if id == "fig12" {
		id = "fig11"
	}
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Render runs e and draws its table: as CSV, or as text with the title line
// above the grid and the paper line below it.
func (e Experiment) Render(opt Options, csvOut bool) (string, error) {
	t, err := e.Run(opt)
	if err != nil {
		return "", err
	}
	if csvOut {
		return t.CSV(), nil
	}
	var b strings.Builder
	if e.Title != "" {
		b.WriteString(e.Title + "\n")
	}
	b.WriteString(t.Text())
	if e.Paper != "" {
		b.WriteString("paper: " + e.Paper + "\n")
	}
	return b.String(), nil
}

// tabulate joins a Run function to the table its rows are drawn as.
func tabulate[R any](run func(Options) ([]R, error), table func([]R) Table) func(Options) (Table, error) {
	return func(o Options) (Table, error) {
		rows, err := run(o)
		if err != nil {
			return Table{}, err
		}
		return table(rows), nil
	}
}

func fig2Table(rows []Fig2Row) Table {
	t := Table{
		Cols:      []Column{left("request", 10), left("cache", 8), right("inter-VM", 12), right("local", 12), right("ratio", 8)},
		CSVHeader: []string{"request_bytes", "cached", "inter_vm_ms", "local_ms"},
	}
	for _, r := range rows {
		ratio := float64(r.InterVM) / float64(r.Local)
		t.Rows = append(t.Rows, []string{sizeLabel(r.ReqSize), cacheLabel(r.Cached), msS(r.InterVM), msS(r.Local), fmt.Sprintf("%.2fx", ratio)})
		t.Records = append(t.Records, []string{intS(r.ReqSize), strconv.FormatBool(r.Cached), msS(r.InterVM), msS(r.Local)})
	}
	return t
}

func fig3Table(rows []Fig3Row) Table {
	t := Table{
		Cols:      []Column{left("request", 10), right("VMs", 8), right("rate", 12)},
		CSVHeader: []string{"request_bytes", "vms", "transactions_per_sec"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{sizeLabel(r.ReqSize), strconv.Itoa(r.VMs), fmt.Sprintf("%.0f", r.Rate)})
		t.Records = append(t.Records, []string{intS(r.ReqSize), strconv.Itoa(r.VMs), f3(r.Rate)})
	}
	return t
}

// breakdownTable draws Figures 6–8. The text form stacks each bar: a total
// line, then one line per tag by descending share. The CSV form is long,
// one record per tag in name order, ready for stacked-bar plotting.
func breakdownTable(rows []BreakdownRow) Table {
	t := Table{
		// figure, side, system, "total", total share; then tag, tag share.
		Cols:      []Column{left("", 0), left("", 9), left("", 8), left("", 0), right("", 6), left("", 26), right("", 7)},
		CSVHeader: []string{"figure", "side", "system", "tag", "cpu_pct"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Figure, r.Side, r.System, "total", fmt.Sprintf("%.1f%%", r.Total()*100), "", ""})
		tags := metrics.TagsByShare(r.Breakdown)
		for _, tag := range tags {
			t.Rows = append(t.Rows, []string{"", "", "", "", "", "  " + tag, fmt.Sprintf("%.2f%%", r.Breakdown[tag]*100)})
		}
		slices.Sort(tags)
		for _, tag := range tags {
			t.Records = append(t.Records, []string{r.Figure, r.Side, r.System, tag, f3(r.Breakdown[tag] * 100)})
		}
	}
	return t
}

func fig9Table(rows []Fig9Row) Table {
	t := Table{
		Cols: []Column{left("request", 10), right("VMs", 4), left("cache", 8), right("vanilla", 12), right("vRead", 12),
			right("reduction", 10), right("vanillaP99", 12), right("vReadP99", 12)},
		CSVHeader: []string{"request_bytes", "vms", "cached", "vanilla_ms", "vread_ms", "vanilla_p99_ms", "vread_p99_ms"},
	}
	for _, r := range rows {
		red := (1 - float64(r.VRead)/float64(r.Vanilla)) * 100
		t.Rows = append(t.Rows, []string{sizeLabel(r.ReqSize), strconv.Itoa(r.VMs), cacheLabel(r.Cached), msS(r.Vanilla), msS(r.VRead),
			fmt.Sprintf("%.1f%%", red), msS(r.VanillaP99), msS(r.VReadP99)})
		t.Records = append(t.Records, []string{intS(r.ReqSize), strconv.Itoa(r.VMs), strconv.FormatBool(r.Cached),
			msS(r.Vanilla), msS(r.VRead), msS(r.VanillaP99), msS(r.VReadP99)})
	}
	return t
}

func dfsioTable(rows []DFSIORow) Table {
	t := Table{
		Cols: []Column{left("scenario", 11), right("VMs", 4), left("freq", 7), left("system", 8), left("mode", 8),
			right("MB/s", 10), right("cpu-ms", 10)},
		CSVHeader: []string{"scenario", "vms", "freq_ghz", "system", "mode", "throughput_mbps", "cpu_ms"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Scenario.String(), strconv.Itoa(r.VMs), GHz(r.FreqHz), r.System, r.Mode,
			fmt.Sprintf("%.1f", r.Throughput), fmt.Sprintf("%.0f", r.CPUTimeMs)})
		t.Records = append(t.Records, []string{r.Scenario.String(), strconv.Itoa(r.VMs), fmt.Sprintf("%.1f", float64(r.FreqHz)/1e9),
			r.System, r.Mode, f3(r.Throughput), f3(r.CPUTimeMs)})
	}
	return t
}

func fig13Table(rows []Fig13Row) Table {
	t := Table{
		Cols:      []Column{left("scenario", 11), left("system", 8), right("MB/s", 10), right("refreshes", 10)},
		CSVHeader: []string{"scenario", "system", "throughput_mbps", "refreshes"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Scenario.String(), r.System, fmt.Sprintf("%.1f", r.Throughput), intS(r.Refreshes)})
		t.Records = append(t.Records, []string{r.Scenario.String(), r.System, f3(r.Throughput), intS(r.Refreshes)})
	}
	return t
}

func table2Table(rows []Table2Row) Table {
	t := Table{
		Cols:      []Column{left("phase", 16), right("vanilla", 10), right("vRead", 10), right("improvement", 12)},
		CSVHeader: []string{"phase", "vanilla_mbps", "vread_mbps", "improvement_pct"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Phase, fmt.Sprintf("%.2f", r.Vanilla), fmt.Sprintf("%.2f", r.VRead), fmt.Sprintf("%.1f%%", r.Improvement())})
		t.Records = append(t.Records, []string{r.Phase, f3(r.Vanilla), f3(r.VRead), f3(r.Improvement())})
	}
	return t
}

func table3Table(rows []Table3Row) Table {
	t := Table{
		Cols:      []Column{left("workload", 14), right("vanilla", 14), right("vRead", 14), right("reduction", 12)},
		CSVHeader: []string{"workload", "vanilla_ms", "vread_ms", "reduction_pct"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Workload, r.Vanilla.Round(time.Millisecond).String(), r.VRead.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f%%", r.Reduction())})
		t.Records = append(t.Records, []string{r.Workload, msS(r.Vanilla), msS(r.VRead), f3(r.Reduction())})
	}
	return t
}

// ablationTable draws ablation and fault-sweep rows: a headerless grid whose
// last column, the unit, is not padded.
func ablationTable(rows []AblationRow) Table {
	t := Table{
		Cols:      []Column{left("", 18), left("", 30), right("", 12), left("", 0)},
		CSVHeader: []string{"study", "config", "value", "unit"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Study, r.Config, fmt.Sprintf("%.2f", r.Value), r.Unit})
		t.Records = append(t.Records, []string{r.Study, r.Config, f3(r.Value), r.Unit})
	}
	return t
}

// MigrationTable draws migration sweep rows (vread-sim prints its grid for a
// migrate scenario).
func MigrationTable(rows []MigrationRow) Table {
	t := Table{
		Cols: []Column{left("depth", 6), right("blackout", 12), right("quiesced", 9), right("captured", 9),
			right("worst-in", 15), right("worst-out", 15), right("reads", 6)},
		CSVHeader: []string{"depth", "blackout_ms", "quiesced", "captured", "worst_in_blackout_ms", "worst_outside_ms", "reads", "fingerprint"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{strconv.Itoa(r.Depth), r.Blackout.String(), strconv.Itoa(r.Quiesced), strconv.Itoa(r.Captured),
			r.WorstIn.String(), r.WorstOut.String(), strconv.Itoa(r.Reads)})
		t.Records = append(t.Records, []string{strconv.Itoa(r.Depth), msS(r.Blackout), strconv.Itoa(r.Quiesced), strconv.Itoa(r.Captured),
			msS(r.WorstIn), msS(r.WorstOut), strconv.Itoa(r.Reads), fmt.Sprintf("%016x", r.Fingerprint)})
	}
	return t
}

func f3(v float64) string        { return strconv.FormatFloat(v, 'f', 3, 64) }
func msS(d time.Duration) string { return f3(float64(d) / float64(time.Millisecond)) }
func intS(v int64) string        { return strconv.FormatInt(v, 10) }

func cacheLabel(cached bool) string {
	if cached {
		return "cached"
	}
	return "cold"
}

func sizeLabel(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
