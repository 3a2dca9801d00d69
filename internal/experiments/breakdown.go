package experiments

import (
	"errors"
	"io"
	"time"

	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/sim"
)

// BreakdownRow is one stacked bar of Figures 6, 7 or 8: the per-tag CPU
// utilization of one side (client or datanode) under one system.
type BreakdownRow struct {
	Figure    string             // "fig6" | "fig7" | "fig8"
	Side      string             // "client" | "datanode"
	System    string             // "vanilla" | "vRead"
	Breakdown map[string]float64 // tag → fraction of one core
}

// Total returns the bar height (entity utilization, 0..1 of a core).
func (r BreakdownRow) Total() float64 {
	var t float64
	for _, v := range r.Breakdown {
		t += v
	}
	return t
}

// RunFig6 reproduces Figure 6: CPU utilization of a co-located 1 GB read
// with 1 MB requests, vanilla vs vRead, broken down by the paper's tags.
func RunFig6(opt Options) ([]BreakdownRow, error) {
	return runBreakdown(opt, "fig6", Colocated, core.TransportRDMA)
}

// RunFig7 reproduces Figure 7: the remote read with RDMA daemons.
func RunFig7(opt Options) ([]BreakdownRow, error) {
	return runBreakdown(opt, "fig7", Remote, core.TransportRDMA)
}

// RunFig8 reproduces Figure 8: the remote read with TCP daemons.
func RunFig8(opt Options) ([]BreakdownRow, error) {
	return runBreakdown(opt, "fig8", Remote, core.TransportTCP)
}

// runBreakdown runs the figure's read under vRead and vanilla and builds the
// bars from the metrics.Registry's cycle counters over the read's window.
func runBreakdown(opt Options, figure string, scenario Scenario, tr core.Transport) ([]BreakdownRow, error) {
	return runCells(opt, 2, func(i int, o Options) ([]BreakdownRow, error) {
		vread := i == 0 // row order: vRead first, then vanilla
		tb, err := breakdownRead(o, figure, scenario, tr, vread)
		if err != nil {
			return nil, err
		}
		defer tb.Close()
		now, freq := tb.C.Env.Now(), tb.Opt.FreqHz
		return assembleRows(figure, vread, scenario, func(entity string) map[string]float64 {
			return tb.C.Reg.Breakdown(entity, now, freq)
		}), nil
	})
}

// breakdownRead builds one bar pair's testbed, writes the figure's file, and
// reads it back in 1 MB requests. The registry window (MarkWindow) spans the
// read alone and ends at the testbed's current time. The caller closes the
// returned testbed.
func breakdownRead(o Options, figure string, scenario Scenario, tr core.Transport, vread bool) (*Testbed, error) {
	o.ExtraVMs = false
	o.VReadConfig.Transport = tr
	o.VRead = vread
	tb := NewTestbed(o)
	tb.Place(scenario)
	fileSize := tb.Opt.scaled(1<<30, 64<<20)
	const path = "/bench/breakdown"
	if err := tb.Run(figure+"-setup", time.Hour, func(p *sim.Proc) error {
		return tb.Client.WriteFile(p, path, data.Pattern{Seed: 6, Size: fileSize})
	}); err != nil {
		tb.Close()
		return nil, err
	}
	if err := tb.Run(figure+"-read", time.Hour, func(p *sim.Proc) error {
		// Let the guests' asynchronous writeback from the setup phase drain
		// before the window opens, so the bars hold the read's cycles only.
		p.Sleep(5 * time.Second)
		tb.DropAllCaches()
		tb.C.Reg.MarkWindow(tb.C.Env.Now())
		r, err := tb.Client.Open(p, path)
		if err != nil {
			return err
		}
		defer r.Close(p)
		for {
			if _, err := r.Read(p, 1<<20); errors.Is(err, io.EOF) {
				return nil
			} else if err != nil {
				return err
			}
		}
	}); err != nil {
		tb.Close()
		return nil, err
	}
	return tb, nil
}

// assembleRows maps per-entity breakdowns onto the figure's two bars. Under
// vRead the daemons' host-side work joins the side they serve: the client's
// host daemon handles requests/completions, the remote host's daemon does
// the datanode's reading.
func assembleRows(figure string, vread bool, scenario Scenario, bd func(entity string) map[string]float64) []BreakdownRow {
	clientBD := bd("client")
	var dnBD map[string]float64
	if vread {
		if scenario == Remote {
			merge(clientBD, bd(core.DaemonEntity("host1")))
			dnBD = bd(core.DaemonEntity("host2"))
		} else {
			dnBD = bd(core.DaemonEntity("host1"))
		}
	} else {
		dn := "dn1"
		if scenario == Remote {
			dn = "dn2"
		}
		dnBD = bd(dn)
	}
	return []BreakdownRow{
		{Figure: figure, Side: "client", System: sysName(vread), Breakdown: clientBD},
		{Figure: figure, Side: "datanode", System: sysName(vread), Breakdown: dnBD},
	}
}

func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}
