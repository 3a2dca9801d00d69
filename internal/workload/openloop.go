package workload

import (
	"fmt"
	"time"

	"vread/internal/metrics"
	"vread/internal/sim"
)

// OpenLoopConfig parameterizes an open-loop load generator: arrivals are
// scheduled at a fixed rate regardless of completions — the SLO-honest load
// model (queueing delay shows up in the latency tail instead of silently
// throttling the generator, Dynamo's 99.9th-percentile framing).
type OpenLoopConfig struct {
	// QPS is the arrival rate in operations per virtual second. Default 1000.
	QPS float64
	// Arrivals is the total operation count. Default 100.
	Arrivals int
}

// WithDefaults fills zero fields.
func (c OpenLoopConfig) WithDefaults() OpenLoopConfig {
	if c.QPS == 0 {
		c.QPS = 1000
	}
	if c.Arrivals == 0 {
		c.Arrivals = 100
	}
	return c
}

// OpResult is one open-loop operation's outcome.
type OpResult struct {
	// Start is the virtual arrival instant.
	Start time.Duration
	// Latency is arrival-to-completion time (queueing included — open loop).
	Latency time.Duration
	// Label classifies the outcome ("ok", "typed-error", …), as returned by
	// the operation callback.
	Label string
}

// RunOpenLoop drives cfg.Arrivals operations at cfg.QPS from the calling
// process and blocks until every operation finishes. Arrivals never wait
// for earlier completions: each starts on an idle worker Proc, or on a new
// one when every worker is busy, so the workers number the most operations
// ever in flight. Starting either costs the one zero-delay event env.Go's
// start does. do runs operation i and returns its outcome label. Results
// are indexed by arrival, so output derived from them is deterministic.
func RunOpenLoop(p *sim.Proc, env *sim.Env, cfg OpenLoopConfig, do func(p *sim.Proc, i int) string) []OpResult {
	cfg = cfg.WithDefaults()
	period := time.Duration(float64(time.Second) / cfg.QPS)
	results := make([]OpResult, cfg.Arrivals)
	done := 0
	var allDone sim.Signal
	var idle []*opWorker
	for i := 0; i < cfg.Arrivals; i++ {
		results[i].Start = env.Now()
		if n := len(idle); n > 0 {
			w := idle[n-1]
			idle = idle[:n-1]
			w.i = i
			w.start()
		} else {
			w := &opWorker{i: i}
			w.proc = env.Go(fmt.Sprintf("openloop:%d", i), func(op *sim.Proc) {
				for {
					label := do(op, w.i)
					results[w.i].Latency = env.Now() - results[w.i].Start
					results[w.i].Label = label
					done++
					allDone.Signal()
					w.start = op.Arm()
					idle = append(idle, w)
					op.Await()
				}
			})
		}
		p.Sleep(period)
	}
	for done < cfg.Arrivals {
		allDone.Wait(p)
	}
	for _, w := range idle {
		w.proc.End()
	}
	return results
}

// opWorker is one of RunOpenLoop's Procs: it runs arrival i, then parks
// idle until start resumes it with the next one.
type opWorker struct {
	proc  *sim.Proc
	i     int
	start func()
}

// SLO aggregates one labeled slice of open-loop results into the p50/p95/p99
// row the scale experiments emit.
type SLO struct {
	Count         int
	P50, P95, P99 time.Duration
	Max           time.Duration
}

// SLOOf computes percentiles over the results carrying the given label
// (nearest-rank, via metrics.LatencyRecorder).
func SLOOf(results []OpResult, label string) SLO {
	rec := metrics.NewLatencyRecorder()
	for _, r := range results {
		if r.Label == label {
			rec.Record(r.Latency)
		}
	}
	return SLO{
		Count: rec.Count(),
		P50:   rec.Percentile(50),
		P95:   rec.Percentile(95),
		P99:   rec.Percentile(99),
		Max:   rec.Max(),
	}
}
