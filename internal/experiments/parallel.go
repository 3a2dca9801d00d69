package experiments

import (
	"vread/internal/cluster"
	"vread/internal/par"
	"vread/internal/sim"
	"vread/internal/trace"
)

// RunStats accumulates engine-level totals across every testbed an
// experiment builds. It is safe to share one RunStats across concurrently
// running cells (the counters inside are par.Counters) and across several
// Run* calls — the golden tests use that to pin each experiment's event and
// Proc resume counts.
type RunStats struct {
	events  par.Counter
	resumes par.Counter
}

// addEnv adds a closing cell Env's fired events and Proc resumes.
func (s *RunStats) addEnv(e *sim.Env) {
	if s != nil {
		s.events.Add(int64(e.Fired()))
		s.resumes.Add(int64(e.Resumes()))
	}
}

// closeCluster closes a cell's cluster that was built outside a Testbed,
// first counting its Env as Testbed.Close does.
func (s *RunStats) closeCluster(c *cluster.Cluster) {
	s.addEnv(c.Env)
	c.Close()
}

// Events returns the total simulated events executed so far.
func (s *RunStats) Events() int64 {
	if s == nil {
		return 0
	}
	return s.events.Load()
}

// Resumes returns the total Proc resumes so far.
func (s *RunStats) Resumes() int64 {
	if s == nil {
		return 0
	}
	return s.resumes.Load()
}

// runCells runs n independent experiment cells — each with its own testbed,
// Env, and RNG — across par.Workers(opt.Parallel, n) OS threads and returns
// the cells' rows concatenated in cell-index order.
//
// Determinism: a cell's result depends only on (i, o), never on which worker
// ran it or when, because every cell builds its state from scratch off the
// seed. Collecting by index therefore makes the output bit-for-bit identical
// to a serial run. Trace collection gets the same treatment: when the caller
// passed a shared collector, each cell traces into a private one and the
// privates are absorbed in cell order afterwards, reproducing exactly the
// trace IDs a serial run would have assigned.
func runCells[T any](opt Options, n int, run func(i int, o Options) ([]T, error)) ([]T, error) {
	workers := par.Workers(opt.Parallel, n)
	var cols []*trace.Collector
	if opt.Traces != nil {
		cols = make([]*trace.Collector, n)
		for i := range cols {
			cols[i] = &trace.Collector{}
		}
	}
	results := make([][]T, n)
	err := par.Each(workers, n, func(i int) error {
		o := opt
		if cols != nil {
			o.Traces = cols[i]
		}
		rows, err := run(i, o)
		if err != nil {
			return err
		}
		results[i] = rows
		return nil
	})
	// Absorb even when a cell failed: Each has already joined every worker,
	// and cells that completed produced traces a serial run would have left
	// in the caller's collector. Failed or never-started cells contribute an
	// empty (or partial, like serial's failing cell) collector.
	for _, c := range cols {
		opt.Traces.Absorb(c)
	}
	if err != nil {
		return nil, err
	}
	var out []T
	for _, rows := range results {
		out = append(out, rows...)
	}
	return out, nil
}
