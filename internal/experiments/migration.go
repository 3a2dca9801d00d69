// Migration sweep: the availability experiment for live mount migration. A
// datanode's image is live-migrated mid-storm while a configurable number of
// client VMs stream reads from it; each cell measures the read-latency
// blackout the cutover imposes versus the in-flight depth. The contract is
// zero lost or corrupted reads at every depth — in-flight reads block through
// the blackout and replay, so the migration is visible only as latency — and
// the whole sweep is replayable by (seed, config): the per-stream completion
// logs fold into a fingerprint that is byte-identical across serial and
// parallel runs.
package experiments

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"time"

	"vread/internal/cluster"
	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/hdfs"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// MigrationConfig describes one migration sweep; the seed is Options.Seed.
type MigrationConfig struct {
	// Depths lists the concurrent-reader-VM counts, one cell each. Default
	// {1, 2, 4, 8}.
	Depths []int
	// ReadsPerStream is how many reads each reader VM issues. Default 12.
	ReadsPerStream int
	// ReadSize is bytes per read. Default 256 KiB.
	ReadSize int64
	// FileSize is the migrated datanode's file size. Default 4 MiB.
	FileSize int64
	// TriggerAfter is the virtual delay before the migration fires, measured
	// from the storm's start — deep enough into the storm that every stream
	// has reads in flight. Default 5 ms.
	TriggerAfter time.Duration
}

// migrationDeadline bounds each cell of the sweep in virtual time.
const migrationDeadline = 4 * time.Hour

// WithDefaults fills zero fields.
func (c MigrationConfig) WithDefaults() MigrationConfig {
	if len(c.Depths) == 0 {
		c.Depths = []int{1, 2, 4, 8}
	}
	c.ReadsPerStream = cmp.Or(c.ReadsPerStream, 12)
	c.ReadSize = cmp.Or(c.ReadSize, 256<<10)
	c.FileSize = cmp.Or(c.FileSize, 4<<20)
	c.TriggerAfter = cmp.Or(c.TriggerAfter, 5*time.Millisecond)
	return c
}

// MigrationRow is one cell of the migration sweep.
type MigrationRow struct {
	Depth       int           // concurrent reader VMs during the cutover
	Blackout    time.Duration // quiesce-start → rings-restored window
	Quiesced    int           // client rings quiesced for the cutover
	Captured    int           // descriptors captured and replayed across it
	WorstIn     time.Duration // worst read latency overlapping the blackout
	WorstOut    time.Duration // worst read latency outside it (the baseline)
	Reads       int           // reads completed (all of them, correct)
	Fingerprint uint64        // FNV-1a over the per-stream completion logs
}

// RunMigrationSweep runs one cell per depth and returns the blackout rows.
// Any lost, failed, or corrupted read fails the sweep with an error — the
// experiment's contract, not a statistic.
func RunMigrationSweep(opt Options, mc MigrationConfig) ([]MigrationRow, error) {
	opt = opt.withDefaults()
	mc = mc.WithDefaults()
	return runCells(opt, len(mc.Depths), func(i int, o Options) ([]MigrationRow, error) {
		row, err := runMigrationCell(o, mc, mc.Depths[i])
		if err != nil {
			return nil, fmt.Errorf("experiments: migration depth %d: %w", mc.Depths[i], err)
		}
		return []MigrationRow{row}, nil
	})
}

// BuildReaders builds the two-host reader testbed the chaos storms and the
// migration sweep share on the empty cluster c: the reader VMs and dn1 on
// host1, dn2 on host2, a NameNode with blockSize blocks placed by place, and
// vRead from cfg (cfg.Faults armed on the cluster too). It returns the
// manager, a writer on readers[0] and one lib per reader.
func BuildReaders(c *cluster.Cluster, readers []string, blockSize int64, place hdfs.PlacementPolicy, cfg core.Config) (*core.Manager, *hdfs.Client, []*core.Lib) {
	h1, h2 := c.AddHost("host1"), c.AddHost("host2")
	c.InjectFaults(cfg.Faults)
	for _, name := range readers {
		h1.AddVM(name, metrics.TagClientApp)
	}
	dn1 := h1.AddVM("dn1", metrics.TagDatanodeApp)
	dn2 := h2.AddVM("dn2", metrics.TagDatanodeApp)

	nn := hdfs.NewNameNode(c.Env, hdfs.Config{BlockSize: blockSize}, c.Fabric)
	hdfs.StartDataNode(c.Env, nn, dn1.Kernel)
	hdfs.StartDataNode(c.Env, nn, dn2.Kernel)
	writer := hdfs.NewClient(c.Env, nn, c.VM(readers[0]).Kernel)
	nn.SetPlacementPolicy(place)

	mgr := core.NewManager(c, nn, cfg)
	mgr.MountDatanode("dn1")
	mgr.MountDatanode("dn2")
	libs := make([]*core.Lib, len(readers))
	for i, name := range readers {
		libs[i] = mgr.EnableClient(name)
	}
	writer.SetBlockReader(libs[0])
	return mgr, writer, libs
}

func runMigrationCell(opt Options, mc MigrationConfig, depth int) (MigrationRow, error) {
	row := MigrationRow{Depth: depth}
	c := cluster.New(opt.Seed, cluster.Params{FreqHz: opt.FreqHz})
	defer opt.Stats.closeCluster(c)
	readers := make([]string, depth)
	for s := range readers {
		readers[s] = fmt.Sprintf("reader%d", s)
	}
	mgr, writer, libs := BuildReaders(c, readers, 64<<20,
		func(string, string, int) []string { return []string{"dn1"} }, opt.VReadConfig)

	content := data.Pattern{Seed: uint64(opt.Seed)*1000 + uint64(depth), Size: mc.FileSize}
	want := data.NewSlice(content)
	span := mc.FileSize - mc.ReadSize

	// Per-stream completion logs, classified against the migration window and
	// folded into the fingerprint in stream order after the drain — identical
	// no matter how cells are scheduled.
	type readRec struct {
		j     int
		off   int64
		start time.Duration
		lat   time.Duration
	}
	logs := make([][]readRec, depth)
	var migStart, migEnd time.Duration
	var ferr error
	fail := func(format string, args ...interface{}) {
		if ferr == nil {
			ferr = fmt.Errorf(format, args...)
		}
	}

	written := false
	c.Go("writer", func(p *sim.Proc) {
		if err := writer.WriteFile(p, "/mig/f", content); err != nil {
			fail("write: %v", err)
			return
		}
		written = true
	})
	if err := c.Env.RunUntil(c.Env.Now() + time.Hour); err != nil {
		return row, err
	}
	if ferr != nil || !written {
		return row, fmt.Errorf("write phase did not complete: %v", ferr)
	}

	storm := c.Env.Now()
	done := 0
	for s := range readers {
		s := s
		c.Go(readers[s]+"-storm", func(p *sim.Proc) {
			vfd, ok := libs[s].OpenPath(p, nil, "dn1", hdfs.BlockPath(1), "blk_1")
			if !ok {
				fail("stream %d: open failed", s)
				return
			}
			for j := 0; j < mc.ReadsPerStream; j++ {
				// Arithmetic offsets — no RNG, so the schedule is identical
				// at every depth prefix and across serial/parallel runs.
				off := int64((uint64(s)*2654435761 + uint64(j)*40503) % uint64(span+1))
				start := c.Env.Now()
				got, err := vfd.ReadAt(p, nil, off, mc.ReadSize)
				lat := c.Env.Now() - start
				if err != nil {
					fail("stream %d read %d: %v", s, j, err)
					return
				}
				if !data.Equal(got, want.Sub(off, mc.ReadSize)) {
					fail("stream %d read %d: silent corruption", s, j)
					return
				}
				row.Reads++
				logs[s] = append(logs[s], readRec{j: j, off: off, start: start, lat: lat})
			}
			vfd.Close(p, nil)
			done++
		})
	}
	c.Go("migrator", func(p *sim.Proc) {
		p.Sleep(mc.TriggerAfter)
		migStart = c.Env.Now()
		mig, err := mgr.MigrateMount(p, "dn1", "host1", "host2")
		migEnd = c.Env.Now()
		if err != nil {
			fail("migration: %v", err)
			return
		}
		row.Blackout = mig.Blackout
		row.Quiesced = mig.Quiesced
		row.Captured = mig.Captured
	})
	if err := c.Env.RunUntil(storm + migrationDeadline); err != nil {
		return row, err
	}
	if ferr != nil {
		return row, ferr
	}
	if err := mgr.Drained(nil, done == depth); err != nil {
		return row, err
	}
	if row.Quiesced != depth {
		return row, fmt.Errorf("quiesced %d rings, want %d", row.Quiesced, depth)
	}

	fp := fnv.New64a()
	for s := range logs {
		for _, r := range logs[s] {
			// A read overlaps the blackout when it started before the restore
			// and ended after the quiesce began.
			overlap := migEnd > 0 && r.start < migEnd && r.start+r.lat > migStart
			if overlap {
				if r.lat > row.WorstIn {
					row.WorstIn = r.lat
				}
			} else if r.lat > row.WorstOut {
				row.WorstOut = r.lat
			}
			fmt.Fprintf(fp, "%d|%d|%d|%d|%v\n", s, r.j, r.off, r.lat, overlap)
		}
	}
	fmt.Fprintf(fp, "blackout=%v quiesced=%d captured=%d\n", row.Blackout, row.Quiesced, row.Captured)
	row.Fingerprint = fp.Sum64()
	return row, nil
}
