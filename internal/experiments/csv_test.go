package experiments

import (
	"encoding/csv"
	"strings"
	"testing"
	"time"
)

// parseCSV draws tab through the CSV renderer and parses the result back.
func parseCSV(t *testing.T, tab Table) [][]string {
	t.Helper()
	s := tab.CSV()
	rows, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v\n%s", err, s)
	}
	return rows
}

func TestCSVFig2(t *testing.T) {
	rows := parseCSV(t, fig2Table([]Fig2Row{
		{ReqSize: 65536, Cached: true, InterVM: 2 * time.Millisecond, Local: 500 * time.Microsecond},
	}))
	if len(rows) != 2 || rows[1][0] != "65536" || rows[1][1] != "true" || rows[1][2] != "2.000" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCSVFig9IncludesP99(t *testing.T) {
	rows := parseCSV(t, fig9Table([]Fig9Row{{
		ReqSize: 1 << 20, VMs: 4, Vanilla: 3 * time.Millisecond, VRead: time.Millisecond,
		VanillaP99: 5 * time.Millisecond, VReadP99: 2 * time.Millisecond,
	}}))
	if rows[0][5] != "vanilla_p99_ms" || rows[1][5] != "5.000" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCSVDFSIO(t *testing.T) {
	rows := parseCSV(t, dfsioTable([]DFSIORow{{
		Scenario: Hybrid, VMs: 4, FreqHz: 3_200_000_000, System: "vRead",
		Mode: "re-read", Throughput: 819.7, CPUTimeMs: 182,
	}}))
	want := []string{"hybrid", "4", "3.2", "vRead", "re-read", "819.700", "182.000"}
	for i, v := range want {
		if rows[1][i] != v {
			t.Fatalf("col %d = %q, want %q", i, rows[1][i], v)
		}
	}
}

func TestCSVBreakdownsLongForm(t *testing.T) {
	rows := parseCSV(t, breakdownTable([]BreakdownRow{{
		Figure: "fig6", Side: "client", System: "vanilla",
		Breakdown: map[string]float64{"vhost-net": 0.25, "others": 0.05},
	}}))
	if len(rows) != 3 { // header + 2 tags
		t.Fatalf("rows = %v", rows)
	}
}

func TestCSVTablesAndAblations(t *testing.T) {
	if got := parseCSV(t, table2Table([]Table2Row{{Phase: "Scan", Vanilla: 6.26, VRead: 7.97}})); got[1][3] == "" {
		t.Fatal("missing improvement column")
	}
	if got := parseCSV(t, table3Table([]Table3Row{{Workload: "Hive select", Vanilla: time.Second, VRead: 800 * time.Millisecond}})); got[1][3] != "20.000" {
		t.Fatalf("reduction = %v", got[1])
	}
	if got := parseCSV(t, fig13Table([]Fig13Row{{Scenario: Remote, System: "vRead", Throughput: 120, Refreshes: 5}})); got[1][0] != "remote" {
		t.Fatalf("fig13 = %v", got[1])
	}
	if got := parseCSV(t, fig3Table([]Fig3Row{{ReqSize: 32768, VMs: 2, Rate: 9489}})); got[1][2] != "9489.000" {
		t.Fatalf("fig3 = %v", got[1])
	}
	if got := parseCSV(t, ablationTable([]AblationRow{{Study: "s", Config: "c, with comma", Value: 1, Unit: "u"}})); got[1][1] != "c, with comma" {
		t.Fatalf("comma not quoted: %v", got[1])
	}
}
