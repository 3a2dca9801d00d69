package experiments

import (
	"fmt"
	"time"

	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/hdfs"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// AblationRow is one measurement of a design-choice sweep.
type AblationRow struct {
	Study  string
	Config string
	Value  float64
	Unit   string
}

// RunAblationRingSlots sweeps the ring geometry (slot size × doorbell batch)
// and reports warm co-located read throughput — the §3.3/§4 design choice
// (1024 × 4 KiB slots, batched events).
func RunAblationRingSlots(opt Options) ([]AblationRow, error) {
	opt = opt.withDefaults()
	type geom struct {
		slotBytes int64
		batch     int
	}
	geoms := []geom{
		{1 << 10, 32}, {4 << 10, 1}, {4 << 10, 32}, {4 << 10, 256}, {16 << 10, 32},
	}
	return runCells(opt, len(geoms), func(i int, o Options) ([]AblationRow, error) {
		g := geoms[i]
		o.VRead = true
		o.VReadConfig.SlotBytes, o.VReadConfig.EventBatchSlots = g.slotBytes, g.batch
		thr, err := warmReadThroughput(o, Colocated)
		if err != nil {
			return nil, err
		}
		return []AblationRow{{
			Study:  "ring-geometry",
			Config: fmt.Sprintf("slot=%dB batch=%d", g.slotBytes, g.batch),
			Value:  thr,
			Unit:   "MB/s warm read",
		}}, nil
	})
}

// RunAblationDirectRead compares the mounted-FS daemon path against §6's
// raw-device bypass: the bypass loses the host page cache, so re-reads
// collapse to disk speed.
func RunAblationDirectRead(opt Options) ([]AblationRow, error) {
	opt = opt.withDefaults()
	return runCells(opt, 2, func(i int, o Options) ([]AblationRow, error) {
		bypass := i == 1
		o.VRead = true
		o.VReadConfig.DirectDiskBypass = bypass
		thr, err := warmReadThroughput(o, Colocated)
		if err != nil {
			return nil, err
		}
		name := "mounted host FS"
		if bypass {
			name = "raw-device bypass"
		}
		return []AblationRow{{Study: "direct-read", Config: name, Value: thr, Unit: "MB/s warm read"}}, nil
	})
}

// RunAblationTransport compares remote-read throughput and daemon CPU
// between RDMA and TCP daemons (the §5.1 finding that motivates RoCE).
func RunAblationTransport(opt Options) ([]AblationRow, error) {
	opt = opt.withDefaults()
	transports := []core.Transport{core.TransportRDMA, core.TransportTCP}
	return runCells(opt, len(transports), func(i int, o Options) ([]AblationRow, error) {
		tr := transports[i]
		o.VRead = true
		o.VReadConfig.Transport = tr
		tb := NewTestbed(o)
		defer tb.Close()
		tb.Place(Remote)
		fileSize := o.scaled(1<<30, 64<<20)
		const path = "/bench/transport"
		var elapsed time.Duration
		if err := tb.Run("ablation-transport-"+tr.String(), time.Hour, func(p *sim.Proc) error {
			if err := tb.Client.WriteFile(p, path, data.Pattern{Seed: 4, Size: fileSize}); err != nil {
				return err
			}
			tb.DropAllCaches()
			tb.C.Reg.MarkWindow(tb.C.Env.Now())
			start := tb.C.Env.Now()
			if err := readAll(p, tb, path, 1<<20); err != nil {
				return err
			}
			elapsed = tb.C.Env.Now() - start
			return nil
		}); err != nil {
			return nil, err
		}
		cycles := tb.C.Reg.WindowEntityCycles(core.DaemonEntity("host1")) +
			tb.C.Reg.WindowEntityCycles(core.DaemonEntity("host2"))
		return []AblationRow{
			{Study: "remote-transport", Config: tr.String(), Value: metrics.Throughput(fileSize, elapsed), Unit: "MB/s cold read"},
			{Study: "remote-transport", Config: tr.String(), Value: float64(cycles) / 1e6, Unit: "daemon Mcycles"},
		}, nil
	})
}

// RunAblationShortCircuit compares the §2.2 alternatives for a co-located
// read: vanilla inter-VM, HDFS short-circuit (client inside the datanode
// VM), shared-memory networking (one copy removed), and vRead.
func RunAblationShortCircuit(opt Options) ([]AblationRow, error) {
	opt = opt.withDefaults()
	variants := []string{"vanilla", "ivshmem-net", "vRead", "short-circuit (same VM)"}
	return runCells(opt, len(variants), func(i int, o Options) ([]AblationRow, error) {
		variant := variants[i]
		mk := func(thr float64) []AblationRow {
			return []AblationRow{{Study: "alternatives", Config: variant, Value: thr, Unit: "MB/s cold read"}}
		}

		// vanilla, shared-memory networking and vRead: standard testbed.
		if i < 3 {
			o.VRead = variant == "vRead"
			o.SharedMemNet = variant == "ivshmem-net"
			thr, err := coldReadThroughput(o, Colocated)
			if err != nil {
				return nil, err
			}
			return mk(thr), nil
		}

		// Short-circuit: the client runs inside the datanode VM (the
		// placement §2.2 argues against, as it penalizes everything
		// non-local).
		o.VRead = false
		o.ShortCircuit = true
		tb := NewTestbed(o)
		defer tb.Close()
		scClient := hdfs.NewClient(tb.C.Env, tb.NS, tb.C.VM("dn1").Kernel)
		tb.Place(Colocated)
		fileSize := o.scaled(1<<30, 64<<20)
		var elapsed time.Duration
		if err := tb.Run("ablation-shortcircuit", time.Hour, func(p *sim.Proc) error {
			if err := scClient.WriteFile(p, "/bench/sc", data.Pattern{Seed: 5, Size: fileSize}); err != nil {
				return err
			}
			tb.DropAllCaches()
			start := tb.C.Env.Now()
			r, err := scClient.Open(p, "/bench/sc")
			if err != nil {
				return err
			}
			defer r.Close(p)
			if _, err := r.ReadFull(p, fileSize); err != nil {
				return err
			}
			elapsed = tb.C.Env.Now() - start
			return nil
		}); err != nil {
			return nil, err
		}
		return mk(metrics.Throughput(fileSize, elapsed)), nil
	})
}

// RunAblationSRIOV reproduces §6's modern-hardware discussion: SR-IOV
// passthrough NICs speed up the wire but leave the datanode VM on the data
// path, so vRead's advantage persists — and the two compose (vRead+SR-IOV).
func RunAblationSRIOV(opt Options) ([]AblationRow, error) {
	opt = opt.withDefaults()
	type variant struct {
		name  string
		vread bool
		sriov bool
	}
	type cell struct {
		v        variant
		scenario Scenario
	}
	var cells []cell
	for _, v := range []variant{
		{"vanilla virtio", false, false},
		{"vanilla + SR-IOV", false, true},
		{"vRead", true, false},
		{"vRead + SR-IOV", true, true},
	} {
		for _, scenario := range []Scenario{Colocated, Remote} {
			cells = append(cells, cell{v, scenario})
		}
	}
	return runCells(opt, len(cells), func(i int, o Options) ([]AblationRow, error) {
		v, scenario := cells[i].v, cells[i].scenario
		o.VRead = v.vread
		o.SRIOV = v.sriov
		thr, err := coldReadThroughput(o, scenario)
		if err != nil {
			return nil, err
		}
		return []AblationRow{{
			Study:  "sriov-interplay",
			Config: fmt.Sprintf("%s, %s", v.name, scenario),
			Value:  thr,
			Unit:   "MB/s cold read",
		}}, nil
	})
}

// readAll streams the file sequentially with the given buffer.
func readAll(p *sim.Proc, tb *Testbed, path string, buf int64) error {
	r, err := tb.Client.Open(p, path)
	if err != nil {
		return err
	}
	defer r.Close(p)
	_, err = hdfsReadToEOF(p, r, buf)
	return err
}

func hdfsReadToEOF(p *sim.Proc, r *hdfs.FileReader, buf int64) (int64, error) {
	var total int64
	for total < r.Size() {
		s, err := r.Read(p, buf)
		if err != nil {
			return total, err
		}
		total += s.Len()
	}
	return total, nil
}

// coldReadThroughput writes a 1 GB (scaled) file, drops caches, and streams it.
func coldReadThroughput(opt Options, scenario Scenario) (float64, error) {
	return measureThroughput(opt, scenario, false)
}

// warmReadThroughput measures the second (cached) read.
func warmReadThroughput(opt Options, scenario Scenario) (float64, error) {
	return measureThroughput(opt, scenario, true)
}

func measureThroughput(opt Options, scenario Scenario, warm bool) (float64, error) {
	tb := NewTestbed(opt)
	defer tb.Close()
	tb.Place(scenario)
	fileSize := opt.scaled(1<<30, 64<<20)
	const path = "/bench/thr"
	var elapsed time.Duration
	if err := tb.Run("throughput", time.Hour, func(p *sim.Proc) error {
		if err := tb.Client.WriteFile(p, path, data.Pattern{Seed: 3, Size: fileSize}); err != nil {
			return err
		}
		tb.DropAllCaches()
		if warm {
			if err := readAll(p, tb, path, 1<<20); err != nil {
				return err
			}
		}
		start := tb.C.Env.Now()
		if err := readAll(p, tb, path, 1<<20); err != nil {
			return err
		}
		elapsed = tb.C.Env.Now() - start
		return nil
	}); err != nil {
		return 0, err
	}
	return metrics.Throughput(fileSize, elapsed), nil
}
