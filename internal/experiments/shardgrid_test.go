package experiments

import (
	"fmt"
	"testing"
	"time"
)

// smallGrid keeps the invariance tests fast: 8 hosts, 2 client hosts, short
// storm. Shard counts cover serial, even split, ragged split, and
// one-LP-per-shard.
func smallGrid() ShardGridConfig {
	return ShardGridConfig{
		Seed:           11,
		Domains:        1,
		RacksPerDomain: 4,
		HostsPerRack:   2,
		ClientHosts:    2,
		StreamsPerHost: 2,
		ReadsPerStream: 8,
		ReadSize:       64 << 10,
		FileSize:       8 << 20,
		Deadline:       500 * time.Millisecond,
		Shards:         []int{1, 2, 3, 8}, // the golden pins the first two
	}
}

// TestShardGridCountInvariance is the tentpole acceptance check at the
// experiment level: rows, completion logs (via the fingerprint), and event
// counts are byte-identical for every K. Run under -race this also exercises
// the full cluster/netsim/storage stack across concurrent shards. The K=1
// and K=2 cells, without their wall-clock time, are pinned in
// testdata/golden/shardgrid.txt.
func TestShardGridCountInvariance(t *testing.T) {
	cells, err := RunShardGrid(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	base := cells[0]
	if base.Shards != 1 {
		t.Fatalf("cell 0 ran with %d shards, want serial baseline", base.Shards)
	}
	if base.Events == 0 || base.Rows[0].OKs == 0 {
		t.Fatalf("baseline did no work: %+v", base)
	}
	wantRows := RenderSLORows(base.Rows)
	for _, cell := range cells[1:] {
		if got := RenderSLORows(cell.Rows); got != wantRows {
			t.Errorf("K=%d rows diverge:\n--- K=1 ---\n%s--- K=%d ---\n%s", cell.Shards, wantRows, cell.Shards, got)
		}
		if cell.Fingerprint != base.Fingerprint {
			t.Errorf("K=%d fingerprint %#x != serial %#x", cell.Shards, cell.Fingerprint, base.Fingerprint)
		}
		if cell.Events != base.Events {
			t.Errorf("K=%d fired %d events, serial fired %d", cell.Shards, cell.Events, base.Events)
		}
	}
	var pinned string
	for _, cell := range cells[:2] {
		pinned += fmt.Sprintf("K=%d hosts=%d fingerprint=%#016x events=%d\n%s", cell.Shards, cell.Hosts, cell.Fingerprint, cell.Events, RenderSLORows(cell.Rows))
	}
	checkGolden(t, "shardgrid.txt", pinned)
}

// TestShardGridValidation covers the config guards.
func TestShardGridValidation(t *testing.T) {
	cfg := smallGrid()
	cfg.ClientHosts = 8 // == total hosts: no datanodes left
	if _, err := RunShardGrid(cfg); err == nil {
		t.Error("all-client topology did not error")
	}
	cfg = smallGrid()
	cfg.ReadSize = 16 << 20
	cfg.FileSize = 8 << 20
	if _, err := RunShardGrid(cfg); err == nil {
		t.Error("read larger than file did not error")
	}
}
