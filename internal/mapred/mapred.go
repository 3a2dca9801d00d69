// Package mapred is the miniature MapReduce execution engine that the
// Hadoop-level workloads (TestDFSIO, the HBase/Hive/Sqoop studies) run on:
// task trackers with fixed slot counts inside VMs, per-task setup cost (the
// era's JVM spawning), FIFO dispatch, bounded retries, and result
// collection. Shuffle is not modeled — none of the paper's measured jobs is
// shuffle-bound (TestDFSIO's reduce aggregates a handful of counters).
package mapred

import (
	"fmt"
	"time"

	"vread/internal/guest"
	"vread/internal/hdfs"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// Task launch costs.
const (
	// taskSetupCycles is charged on the tracker VM per task (JVM start,
	// task initialization): 30M cycles, ~15ms at 2 GHz.
	taskSetupCycles = 30_000_000
	// taskSetupDelay is non-CPU task launch latency.
	taskSetupDelay = 50 * time.Millisecond
)

// Config holds engine parameters.
type Config struct {
	// SlotsPerTracker is the number of concurrent tasks per tracker.
	// Default 2 (the era's default map slots on small nodes).
	SlotsPerTracker int
	// MaxAttempts bounds per-task retries. Default 2.
	MaxAttempts int
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.SlotsPerTracker == 0 {
		c.SlotsPerTracker = 2
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 2
	}
	return c
}

// Tracker is one task tracker: a VM kernel plus its DFS client.
type Tracker struct {
	Kernel *guest.Kernel
	Client *hdfs.Client
	slots  int
}

// Task is one unit of work. Fn runs in a dedicated process on the tracker.
type Task struct {
	ID int
	Fn func(p *sim.Proc, tr *Tracker) (interface{}, error)
}

// TaskResult pairs a task with its outcome.
type TaskResult struct {
	TaskID   int
	Value    interface{}
	Err      error
	Attempts int
	Start    time.Duration
	End      time.Duration
}

// JobResult summarizes one job run.
type JobResult struct {
	Name    string
	Start   time.Duration
	End     time.Duration
	Results []TaskResult
}

// Elapsed returns the job wall-clock (virtual) duration.
func (r JobResult) Elapsed() time.Duration { return r.End - r.Start }

// Failed returns the results that exhausted their attempts.
func (r JobResult) Failed() []TaskResult {
	var out []TaskResult
	for _, tr := range r.Results {
		if tr.Err != nil {
			out = append(out, tr)
		}
	}
	return out
}

// Engine dispatches jobs over registered trackers.
type Engine struct {
	env      *sim.Env
	cfg      Config
	trackers []*Tracker
}

// NewEngine creates an engine.
func NewEngine(env *sim.Env, cfg Config) *Engine {
	return &Engine{env: env, cfg: cfg.WithDefaults()}
}

// AddTracker registers a tracker VM.
func (e *Engine) AddTracker(kernel *guest.Kernel, client *hdfs.Client) *Tracker {
	tr := &Tracker{Kernel: kernel, Client: client, slots: e.cfg.SlotsPerTracker}
	e.trackers = append(e.trackers, tr)
	return tr
}

// Run executes all tasks and blocks p until the job completes. Tasks are
// dispatched FIFO to free slots across all trackers; a failing task is
// retried up to MaxAttempts times (possibly on another tracker).
func (e *Engine) Run(p *sim.Proc, name string, tasks []Task) JobResult {
	if len(e.trackers) == 0 {
		panic("mapred: no trackers registered")
	}
	job := JobResult{Name: name, Start: e.env.Now()}
	queue := sim.NewQueue[*taskState](e.env, 0)
	for i := range tasks {
		queue.TryPut(&taskState{task: tasks[i]})
	}
	remaining := len(tasks)
	done := sim.NewSignal(e.env)
	results := make([]TaskResult, 0, len(tasks))

	for ti, tr := range e.trackers {
		for s := 0; s < tr.slots; s++ {
			tr := tr
			e.env.Go(fmt.Sprintf("mapred:%s:t%d.s%d", name, ti, s), func(wp *sim.Proc) {
				for {
					st, ok := queue.Get(wp)
					if !ok {
						return
					}
					st.attempts++
					start := e.env.Now()
					tr.Kernel.VCPU().Run(wp, taskSetupCycles, metrics.TagOthers)
					wp.Sleep(taskSetupDelay)
					v, err := st.task.Fn(wp, tr)
					if err != nil && st.attempts < e.cfg.MaxAttempts {
						queue.TryPut(st) // retry, possibly elsewhere
						continue
					}
					results = append(results, TaskResult{
						TaskID:   st.task.ID,
						Value:    v,
						Err:      err,
						Attempts: st.attempts,
						Start:    start,
						End:      e.env.Now(),
					})
					remaining--
					if remaining == 0 {
						queue.Close()
						done.Broadcast()
					}
				}
			})
		}
	}
	for remaining > 0 {
		done.Wait(p)
	}
	job.End = e.env.Now()
	job.Results = results
	return job
}

type taskState struct {
	task     Task
	attempts int
}
