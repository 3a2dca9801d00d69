package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"vread/internal/data"
	"vread/internal/guest"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// ReqSizes is the request-size sweep of Figures 2 and 9.
var ReqSizes = []int64{64 << 10, 1 << 20, 4 << 20}

// hdfsDelayStats reads the whole file sequentially with the given request
// size, recording every request's latency.
func hdfsDelayStats(p *sim.Proc, tb *Testbed, path string, reqSize int64) (*metrics.LatencyRecorder, error) {
	r, err := tb.Client.Open(p, path)
	if err != nil {
		return nil, err
	}
	defer r.Close(p)
	env := tb.C.Env
	rec := metrics.NewLatencyRecorder()
	for {
		start := env.Now()
		if _, err := r.Read(p, reqSize); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, err
		}
		rec.Record(env.Now() - start)
	}
	if rec.Count() == 0 {
		return nil, fmt.Errorf("experiments: empty file %s", path)
	}
	return rec, nil
}

// hdfsMeanDelay is hdfsDelayStats reduced to the mean (what the paper's
// bars plot).
func hdfsMeanDelay(p *sim.Proc, tb *Testbed, path string, reqSize int64) (time.Duration, error) {
	rec, err := hdfsDelayStats(p, tb, path, reqSize)
	if err != nil {
		return 0, err
	}
	return rec.Mean(), nil
}

// localMeanDelay reads a file in the VM's own file system with the given
// request size — the paper's local-read baseline (2 copies).
func localMeanDelay(p *sim.Proc, k *guest.Kernel, path string, reqSize int64) (time.Duration, error) {
	node, err := k.FS().Stat(path)
	if err != nil {
		return 0, err
	}
	env := k.Env()
	start := env.Now()
	var requests int64
	for off := int64(0); off < node.Size(); off += reqSize {
		n := node.Size() - off
		if n > reqSize {
			n = reqSize
		}
		if _, err := k.ReadFileAt(p, nil, node, off, n); err != nil {
			return 0, err
		}
		requests++
	}
	return (env.Now() - start) / time.Duration(requests), nil
}

// Fig2Row is one bar pair of Figure 2: HDFS-from-co-located-VM vs local-FS
// read delay at one request size and cache state.
type Fig2Row struct {
	ReqSize int64
	Cached  bool
	InterVM time.Duration
	Local   time.Duration
}

// RunFig2 reproduces Figure 2: the motivation experiment. A plain (vanilla)
// testbed; a 1 GB file read through the co-located datanode VM versus the
// same file in the client VM's own file system.
//
// Each cell builds its own testbed (setup writes included) so cells are
// independent and can run in parallel. Cell values therefore differ from the
// old shared-testbed serial sweep — no RNG or cache state carries between
// cells — but each cell is a cleaner measurement for it, and serial vs
// parallel runs of this implementation stay byte-identical.
func RunFig2(opt Options) ([]Fig2Row, error) {
	opt = opt.withDefaults()
	opt.VRead = false
	opt.ExtraVMs = false
	type cell struct {
		cached bool
		req    int64
	}
	var cells []cell
	for _, cached := range []bool{false, true} {
		for _, req := range ReqSizes {
			cells = append(cells, cell{cached, req})
		}
	}
	return runCells(opt, len(cells), func(i int, o Options) ([]Fig2Row, error) {
		cached, req := cells[i].cached, cells[i].req
		tb := NewTestbed(o)
		defer tb.Close()
		tb.Place(Colocated)

		fileSize := o.scaled(1<<30, 64<<20)
		content := data.Pattern{Seed: 2, Size: fileSize}
		const hdfsPath = "/bench/fig2"
		const localPath = "/local/fig2"
		if err := tb.Run("fig2-setup", time.Hour, func(p *sim.Proc) error {
			if err := tb.Client.WriteFile(p, hdfsPath, content); err != nil {
				return err
			}
			clientVM := tb.C.VM("client")
			if err := clientVM.FS.MkdirAll("/local"); err != nil {
				return err
			}
			return clientVM.FS.WriteFile(localPath, content)
		}); err != nil {
			return nil, err
		}

		row := Fig2Row{ReqSize: req, Cached: cached}
		if err := tb.Run(fmt.Sprintf("fig2-%d-%v", req, cached), time.Hour, func(p *sim.Proc) error {
			tb.DropAllCaches()
			if cached {
				// Warm pass establishes the caches the re-read hits.
				if _, err := hdfsMeanDelay(p, tb, hdfsPath, req); err != nil {
					return err
				}
				if _, err := localMeanDelay(p, tb.C.VM("client").Kernel, localPath, req); err != nil {
					return err
				}
			}
			var err error
			if row.InterVM, err = hdfsMeanDelay(p, tb, hdfsPath, req); err != nil {
				return err
			}
			row.Local, err = localMeanDelay(p, tb.C.VM("client").Kernel, localPath, req)
			return err
		}); err != nil {
			return nil, err
		}
		return []Fig2Row{row}, nil
	})
}

// Fig9Row is one bar group of Figure 9: vanilla vs vRead co-located read
// delay at one request size, VM count, and cache state.
type Fig9Row struct {
	ReqSize    int64
	VMs        int
	Cached     bool
	Vanilla    time.Duration
	VRead      time.Duration
	VanillaP99 time.Duration // tail latency (beyond the paper's means)
	VReadP99   time.Duration
}

// RunFig9 reproduces Figure 9: the data-access-delay reduction. One vRead
// testbed per cell; the vanilla numbers come from the same testbed with the
// block reader uninstalled, so both read the same blocks. As with RunFig2,
// per-cell testbeds mean values differ from the old shared-testbed sweep
// (intentional: it is what makes cells independent and parallelizable).
func RunFig9(opt Options) ([]Fig9Row, error) {
	opt = opt.withDefaults()
	type cell struct {
		vms    int
		cached bool
		req    int64
	}
	var cells []cell
	for _, vms := range []int{2, 4} {
		for _, cached := range []bool{false, true} {
			for _, req := range ReqSizes {
				cells = append(cells, cell{vms, cached, req})
			}
		}
	}
	return runCells(opt, len(cells), func(i int, o Options) ([]Fig9Row, error) {
		vms, cached, req := cells[i].vms, cells[i].cached, cells[i].req
		o.VRead = true
		o.ExtraVMs = vms == 4
		tb := NewTestbed(o)
		defer tb.Close()
		tb.Place(Colocated)
		fileSize := o.scaled(1<<30, 64<<20)
		const path = "/bench/fig9"
		if err := tb.Run("fig9-setup", time.Hour, func(p *sim.Proc) error {
			return tb.Client.WriteFile(p, path, data.Pattern{Seed: 9, Size: fileSize})
		}); err != nil {
			return nil, err
		}
		row := Fig9Row{ReqSize: req, VMs: vms, Cached: cached}
		for _, vread := range []bool{false, true} {
			if vread {
				tb.Client.SetBlockReader(tb.Lib)
			} else {
				tb.Client.SetBlockReader(nil)
			}
			var rec *metrics.LatencyRecorder
			if err := tb.Run(fmt.Sprintf("fig9-%d-%d-%v-%v", vms, req, cached, vread), time.Hour, func(p *sim.Proc) error {
				tb.DropAllCaches()
				if cached {
					if _, err := hdfsMeanDelay(p, tb, path, req); err != nil {
						return err
					}
				}
				var err error
				rec, err = hdfsDelayStats(p, tb, path, req)
				return err
			}); err != nil {
				return nil, err
			}
			if vread {
				row.VRead = rec.Mean()
				row.VReadP99 = rec.Percentile(99)
			} else {
				row.Vanilla = rec.Mean()
				row.VanillaP99 = rec.Percentile(99)
			}
		}
		return []Fig9Row{row}, nil
	})
}
