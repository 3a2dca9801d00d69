package experiments

import (
	"time"

	"vread/internal/data"
	"vread/internal/sim"
	"vread/internal/trace"
)

// RunDelayStages runs the co-located sequential read of Figure 9 at one
// request size with every request traced, and reduces the trace stream to
// per-stage latency percentiles (p50/p95/p99): where inside the stack the
// delay of Figure 9's bars is spent.
func RunDelayStages(opt Options, reqSize int64, vread bool) ([]trace.StageStat, error) {
	opt = opt.withDefaults()
	col := &trace.Collector{}
	opt.Traces = col
	opt.TraceEvery = 1
	opt.VRead = vread
	opt.ExtraVMs = false
	tb := NewTestbed(opt)
	defer tb.Close()
	tb.Place(Colocated)
	fileSize := opt.scaled(1<<30, 64<<20)
	const path = "/bench/delay-stages"
	if err := tb.Run("delay-stages-setup", time.Hour, func(p *sim.Proc) error {
		return tb.Client.WriteFile(p, path, data.Pattern{Seed: 9, Size: fileSize})
	}); err != nil {
		return nil, err
	}
	if err := tb.Run("delay-stages-read", time.Hour, func(p *sim.Proc) error {
		tb.DropAllCaches()
		_, err := hdfsDelayStats(p, tb, path, reqSize)
		return err
	}); err != nil {
		return nil, err
	}
	return trace.Stages(col.Traces), nil
}
