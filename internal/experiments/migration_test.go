package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// smallMigration keeps the sweep cheap enough for -race while still putting
// several streams in flight across the cutover.
func smallMigration() MigrationConfig {
	return MigrationConfig{
		Depths:         []int{1, 3},
		ReadsPerStream: 6,
		FileSize:       1 << 20,
		ReadSize:       64 << 10,
		TriggerAfter:   500 * time.Microsecond,
	}
}

// TestMigrationSweepSmoke: every cell completes with zero lost or corrupted
// reads (RunMigrationSweep errors otherwise), a finite blackout, and every
// ring quiesced across the cutover.
func TestMigrationSweepSmoke(t *testing.T) {
	mc := smallMigration()
	rows, err := RunMigrationSweep(Options{Seed: 7}, mc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(mc.Depths) {
		t.Fatalf("got %d rows, want %d", len(rows), len(mc.Depths))
	}
	for i, r := range rows {
		if r.Depth != mc.Depths[i] {
			t.Errorf("row %d: depth %d, want %d", i, r.Depth, mc.Depths[i])
		}
		if r.Blackout <= 0 {
			t.Errorf("depth %d: blackout %v, want finite positive window", r.Depth, r.Blackout)
		}
		if r.Reads != r.Depth*mc.ReadsPerStream {
			t.Errorf("depth %d: %d reads completed, want %d", r.Depth, r.Reads, r.Depth*mc.ReadsPerStream)
		}
		if r.WorstIn <= r.WorstOut {
			t.Errorf("depth %d: worst in-blackout latency %v not above baseline %v",
				r.Depth, r.WorstIn, r.WorstOut)
		}
		if r.Fingerprint == 0 {
			t.Errorf("depth %d: empty fingerprint", r.Depth)
		}
	}
}

// TestMigrationSerialParallelIdentity: the sweep's rows — blackouts, captured
// counts, and fingerprints included — are byte-identical whether cells run
// serially or fanned out, so a (seed, config) pair names one exact result.
func TestMigrationSerialParallelIdentity(t *testing.T) {
	mc := smallMigration()
	serial, err := RunMigrationSweep(Options{Seed: 7, Parallel: 1}, mc)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunMigrationSweep(Options{Seed: 7, Parallel: 8}, mc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial and parallel rows differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if MigrationTable(serial).CSV() != MigrationTable(parallel).CSV() {
		t.Fatal("serial and parallel CSV exports differ")
	}
}

func TestCSVMigrationShape(t *testing.T) {
	rows := []MigrationRow{{Depth: 2, Reads: 12, Fingerprint: 0xabc}}
	csv := MigrationTable(rows).CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header+1", len(lines))
	}
	if !strings.HasPrefix(lines[0], "depth,blackout_ms,") {
		t.Fatalf("unexpected header %q", lines[0])
	}
	if !strings.Contains(lines[1], "0000000000000abc") {
		t.Fatalf("fingerprint missing from %q", lines[1])
	}
}
