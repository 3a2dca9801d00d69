package experiments

import (
	"strings"
	"testing"

	"vread/internal/faults"
)

// TestScaleSmoke runs the default small federation at one QPS level, checks
// SLO rows come back sane, and pins them in testdata/golden/scale-smoke.txt.
func TestScaleSmoke(t *testing.T) {
	rows, err := RunScale(Options{Seed: 1, VRead: true}, ScaleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("want 1 steady row, got %d: %v", len(rows), rows)
	}
	r := rows[0]
	if r.Phase != "steady" || r.OKs == 0 || r.P50us <= 0 || r.P99us < r.P50us {
		t.Fatalf("implausible SLO row: %+v", r)
	}
	checkGolden(t, "scale-smoke.txt", RenderSLORows(rows))
}

// TestScaleSerialParallelIdentity checks the determinism contract: the same
// (seed, config) must render byte-identical SLO rows whether the QPS cells
// run serially or fanned out across workers.
func TestScaleSerialParallelIdentity(t *testing.T) {
	sc := ScaleConfig{
		QPSLevels: []float64{1000, 4000},
		Reads:     40,
		KillRack:  "d0r0",
	}
	spec, err := faults.ParseSpec("rack.kill:after=20,max=1;shard.kill:p=0.03")
	if err != nil {
		t.Fatal(err)
	}
	serialRows, err := RunScale(Options{Seed: 5, Faults: spec, Parallel: 1}, sc)
	if err != nil {
		t.Fatal(err)
	}
	parallelRows, err := RunScale(Options{Seed: 5, Faults: spec, Parallel: 8}, sc)
	if err != nil {
		t.Fatal(err)
	}
	serial, parallel := RenderSLORows(serialRows), RenderSLORows(parallelRows)
	if serial != parallel {
		t.Fatalf("serial and parallel runs diverged:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "degraded") {
		t.Fatalf("rack kill produced no degraded phase:\n%s", serial)
	}
}

// TestScaleDatacenter is the acceptance shape: 1000 hosts across 4 fault
// domains, a 4-shard federated namespace at replication 3, and a full rack
// killed mid-storm. The run must complete with the chaos invariants intact
// (RunScale returns an error on any violation) and reads surviving the kill
// through replica failover.
func TestScaleDatacenter(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-host federation build is not short")
	}
	spec, err := faults.ParseSpec("rack.kill:after=20,max=1")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunScale(Options{Seed: 2, Faults: spec}, ScaleConfig{
		Domains:        4,
		RacksPerDomain: 10,
		HostsPerRack:   25, // 4 × 10 × 25 = 1000 hosts
		Shards:         4,
		Replication:    3,
		Datanodes:      12,
		Clients:        4,
		Reads:          50,
		KillRack:       "d0r0",
	})
	if err != nil {
		t.Fatal(err)
	}
	var steady, degraded *SLORow
	for i := range rows {
		switch rows[i].Phase {
		case "steady":
			steady = &rows[i]
		case "degraded":
			degraded = &rows[i]
		}
	}
	if steady == nil || degraded == nil {
		t.Fatalf("want steady and degraded rows, got %v", rows)
	}
	if steady.OKs == 0 || degraded.OKs == 0 {
		t.Fatalf("reads did not survive the rack kill: steady=%+v degraded=%+v", steady, degraded)
	}
}
