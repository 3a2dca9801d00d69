package workload_test

import (
	"math/rand"
	"testing"
	"time"

	"vread/internal/cluster"
	"vread/internal/core"
	"vread/internal/hdfs"
	"vread/internal/mapred"
	"vread/internal/metrics"
	"vread/internal/sim"
	"vread/internal/workload"
)

// bed is a 2-host testbed with HDFS and optional vRead.
type bed struct {
	c      *cluster.Cluster
	cl     *hdfs.Client
	engine *mapred.Engine
	tr     *mapred.Tracker
	mgr    *core.Manager
}

func newBed(t *testing.T, vread bool) *bed {
	t.Helper()
	c := cluster.New(1, cluster.Params{})
	h1 := c.AddHost("host1")
	h2 := c.AddHost("host2")
	clientVM := h1.AddVM("client", metrics.TagClientApp)
	dn1VM := h1.AddVM("dn1", metrics.TagDatanodeApp)
	dn2VM := h2.AddVM("dn2", metrics.TagDatanodeApp)

	nn := hdfs.NewNameNode(c.Env, hdfs.Config{BlockSize: 8 << 20}, c.Fabric)
	hdfs.StartDataNode(c.Env, nn, dn1VM.Kernel)
	hdfs.StartDataNode(c.Env, nn, dn2VM.Kernel)
	cl := hdfs.NewClient(c.Env, nn, clientVM.Kernel)
	engine := mapred.NewEngine(c.Env, mapred.Config{})
	tr := engine.AddTracker(clientVM.Kernel, cl)

	b := &bed{c: c, cl: cl, engine: engine, tr: tr}
	if vread {
		b.mgr = core.NewManager(c, nn, core.Config{})
		b.mgr.MountDatanode("dn1")
		b.mgr.MountDatanode("dn2")
		cl.SetBlockReader(b.mgr.EnableClient("client"))
	}
	return b
}

func (b *bed) run(t *testing.T, d time.Duration, name string, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	b.c.Go(name, func(p *sim.Proc) {
		fn(p)
		done = true
	})
	if err := b.c.Env.RunUntil(b.c.Env.Now() + d); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("%s did not finish in %v", name, d)
	}
}

func TestLookbusyHoldsTargetUtilization(t *testing.T) {
	c := cluster.New(1, cluster.Params{})
	defer c.Close()
	h1 := c.AddHost("host1")
	vm := h1.AddVM("hog", metrics.TagClientApp)
	c.Reg.MarkWindow(0)
	workload.StartLookbusy(vm, 0.85, 0)
	if err := c.Env.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	u := c.Reg.Utilization("hog", workload.TagLookbusy, c.Env.Now(), c.Params.FreqHz)
	if u < 0.80 || u > 0.90 {
		t.Fatalf("lookbusy utilization = %.3f, want ~0.85", u)
	}
}

func TestNetperfRRTransacts(t *testing.T) {
	b := newBed(t, false)
	defer b.c.Close()
	workload.StartNetperfServer(b.c.VM("dn1").Kernel)
	var res workload.NetperfResult
	b.run(t, 20*time.Second, "netperf", func(p *sim.Proc) {
		r, err := workload.RunNetperfRR(p, b.c.VM("client").Kernel, "dn1", 32<<10, 2*time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		res = r
	})
	if res.Transactions < 100 {
		t.Fatalf("only %d transactions in 2s", res.Transactions)
	}
	if res.Rate() <= 0 {
		t.Fatal("zero rate")
	}
}

func TestDFSIOWriteThenRead(t *testing.T) {
	b := newBed(t, false)
	defer b.c.Close()
	cfg := workload.DFSIOConfig{Files: 2, FileSize: 8 << 20}
	var wres, rres workload.DFSIOResult
	b.run(t, 600*time.Second, "dfsio", func(p *sim.Proc) {
		var err error
		wres, err = workload.RunDFSIOWrite(p, b.engine, []*mapred.Tracker{b.tr}, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		rres, err = workload.RunDFSIORead(p, b.engine, []*mapred.Tracker{b.tr}, cfg)
		if err != nil {
			t.Error(err)
		}
	})
	if wres.Bytes != 16<<20 || rres.Bytes != 16<<20 {
		t.Fatalf("bytes: write %d read %d", wres.Bytes, rres.Bytes)
	}
	if wres.Throughput() <= 0 || rres.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
	if rres.CPUCycles <= 0 {
		t.Fatal("no CPU accounted to read job")
	}
}

func TestDFSIOReadFasterWithVRead(t *testing.T) {
	measure := func(vread bool) float64 {
		b := newBed(t, vread)
		defer b.c.Close()
		cfg := workload.DFSIOConfig{Files: 2, FileSize: 8 << 20}
		var thr float64
		b.run(t, 600*time.Second, "dfsio", func(p *sim.Proc) {
			if _, err := workload.RunDFSIOWrite(p, b.engine, []*mapred.Tracker{b.tr}, cfg); err != nil {
				t.Error(err)
				return
			}
			// Cold read.
			b.c.VM("dn1").Kernel.DropCaches()
			b.c.Host("host1").Cache.DropAll()
			res, err := workload.RunDFSIORead(p, b.engine, []*mapred.Tracker{b.tr}, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			thr = res.Throughput()
		})
		return thr
	}
	vanilla := measure(false)
	vread := measure(true)
	if vread <= vanilla {
		t.Fatalf("vRead DFSIO %.1f MB/s not above vanilla %.1f MB/s", vread, vanilla)
	}
}

func TestHBasePhases(t *testing.T) {
	b := newBed(t, false)
	defer b.c.Close()
	cfg := workload.HBaseConfig{Rows: 4000, Seed: 7}
	b.run(t, 600*time.Second, "hbase", func(p *sim.Proc) {
		h, err := workload.SetupHBase(p, b.cl, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		scan, err := h.Scan(p, 4000)
		if err != nil {
			t.Error(err)
			return
		}
		if scan.Rows != 4000 || scan.MBps() <= 0 {
			t.Errorf("scan = %+v", scan)
		}
		seq, err := h.SequentialRead(p, 500)
		if err != nil {
			t.Error(err)
			return
		}
		if seq.Rows != 500 {
			t.Errorf("seq = %+v", seq)
		}
		rnd, err := h.RandomRead(p, 500, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Error(err)
			return
		}
		if rnd.Rows != 500 {
			t.Errorf("rnd = %+v", rnd)
		}
		// Scans amortize per-row costs; they must beat per-get reads.
		if scan.MBps() <= seq.MBps() {
			t.Errorf("scan %.2f MB/s not above sequentialRead %.2f MB/s", scan.MBps(), seq.MBps())
		}
	})
}

func TestHiveSelectScansAllRows(t *testing.T) {
	b := newBed(t, false)
	defer b.c.Close()
	cfg := workload.HiveConfig{Rows: 50_000, Seed: 3}
	b.run(t, 600*time.Second, "hive", func(p *sim.Proc) {
		if err := workload.SetupHiveTable(p, b.cl, cfg); err != nil {
			t.Error(err)
			return
		}
		res, err := workload.RunHiveSelect(p, b.engine, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Rows != 50_000 {
			t.Errorf("scanned %d rows", res.Rows)
		}
		if res.Elapsed <= 0 {
			t.Error("no elapsed time")
		}
	})
}

func TestSqoopExportRateLimited(t *testing.T) {
	b := newBed(t, false)
	defer b.c.Close()
	table := workload.HiveConfig{Rows: 50_000, Seed: 4}
	cfg := workload.SqoopConfig{Table: table, SinkRowsPerSec: 25_000}
	b.run(t, 600*time.Second, "sqoop", func(p *sim.Proc) {
		if err := workload.SetupHiveTable(p, b.cl, table); err != nil {
			t.Error(err)
			return
		}
		res, err := workload.RunSqoopExport(p, b.engine, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Rows != 50_000 {
			t.Errorf("exported %d rows", res.Rows)
		}
		// 4 files over 2 slots = 2 waves; each mapper's JDBC connection
		// inserts 12.5k rows at 25k rows/s → at least ~1s of sink time.
		if res.Elapsed < 900*time.Millisecond {
			t.Errorf("export %v faster than the per-connection sink rate allows", res.Elapsed)
		}
	})
}
