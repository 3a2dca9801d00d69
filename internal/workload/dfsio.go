package workload

import (
	"errors"
	"fmt"
	"io"
	"time"

	"vread/internal/data"
	"vread/internal/hdfs"
	"vread/internal/mapred"
	"vread/internal/sim"
)

// DFSIOConfig parameterizes a TestDFSIO run.
type DFSIOConfig struct {
	// Files is the number of test files (one map task each). Default 5.
	Files int
	// FileSize is bytes per file. Default 1 GiB (the paper reads 5 GB total).
	FileSize int64
	// BufferBytes is the application read/write buffer (the paper's 1 MB
	// default memory buffer).
	BufferBytes int64
	// Dir is the HDFS working directory.
	Dir string
	// Seed varies the generated payload.
	Seed uint64
}

// WithDefaults fills zero fields.
func (c DFSIOConfig) WithDefaults() DFSIOConfig {
	if c.Files == 0 {
		c.Files = 5
	}
	if c.FileSize == 0 {
		c.FileSize = 1 << 30
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 1 << 20
	}
	if c.Dir == "" {
		c.Dir = "/benchmarks/TestDFSIO/io_data"
	}
	return c
}

func (c DFSIOConfig) filePath(i int) string {
	return fmt.Sprintf("%s/test_io_%d", c.Dir, i)
}

// DFSIOResult is one TestDFSIO run's outcome.
type DFSIOResult struct {
	Bytes      int64
	JobElapsed time.Duration
	IOTime     time.Duration // summed per-task I/O time (TestDFSIO's metric base)
	CPUCycles  int64         // vCPU cycles consumed by tracker VMs during the job
}

// Throughput returns TestDFSIO's "Throughput mb/sec": total bytes over the
// summed per-task I/O time.
func (r DFSIOResult) Throughput() float64 {
	if r.IOTime <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.IOTime.Seconds()
}

// CPUTime converts consumed cycles to milliseconds at the given frequency
// (Figure 12's y axis).
//
//lint:converter unitflow(reporting-side cycles→time at the caller's frequency; float math matches TestDFSIO's ms precision)
func (r DFSIOResult) CPUTime(freqHz int64) time.Duration {
	return time.Duration(float64(r.CPUCycles) / float64(freqHz) * float64(time.Second))
}

// RunDFSIOWrite writes the test files as a MapReduce job (one map per file).
func RunDFSIOWrite(p *sim.Proc, e *mapred.Engine, trackers []*mapred.Tracker, cfg DFSIOConfig) (DFSIOResult, error) {
	cfg = cfg.WithDefaults()
	tasks := make([]mapred.Task, cfg.Files)
	for i := range tasks {
		i := i
		tasks[i] = mapred.Task{ID: i, Fn: func(tp *sim.Proc, tr *mapred.Tracker) (interface{}, error) {
			start := tr.Kernel.Env().Now()
			content := data.Pattern{Seed: cfg.Seed + uint64(i), Size: cfg.FileSize}
			if err := tr.Client.WriteFile(tp, cfg.filePath(i), content); err != nil {
				return nil, err
			}
			return tr.Kernel.Env().Now() - start, nil
		}}
	}
	return runDFSIO(p, e, trackers, "dfsio-write", tasks, cfg)
}

// RunDFSIORead reads the test files as a MapReduce job (one map per file),
// using the paper's sequential read1 path with the configured buffer.
func RunDFSIORead(p *sim.Proc, e *mapred.Engine, trackers []*mapred.Tracker, cfg DFSIOConfig) (DFSIOResult, error) {
	cfg = cfg.WithDefaults()
	tasks := make([]mapred.Task, cfg.Files)
	for i := range tasks {
		i := i
		tasks[i] = mapred.Task{ID: i, Fn: func(tp *sim.Proc, tr *mapred.Tracker) (interface{}, error) {
			start := tr.Kernel.Env().Now()
			r, err := tr.Client.Open(tp, cfg.filePath(i))
			if err != nil {
				return nil, err
			}
			defer r.Close(tp)
			for {
				if _, err := r.Read(tp, cfg.BufferBytes); errors.Is(err, io.EOF) {
					break
				} else if err != nil {
					return nil, err
				}
			}
			return tr.Kernel.Env().Now() - start, nil
		}}
	}
	return runDFSIO(p, e, trackers, "dfsio-read", tasks, cfg)
}

func runDFSIO(p *sim.Proc, e *mapred.Engine, trackers []*mapred.Tracker, name string, tasks []mapred.Task, cfg DFSIOConfig) (DFSIOResult, error) {
	var before int64
	for _, tr := range trackers {
		before += tr.Kernel.VCPU().Consumed()
	}
	job := e.Run(p, name, tasks)
	if failed := job.Failed(); len(failed) > 0 {
		return DFSIOResult{}, fmt.Errorf("workload: %s: %d tasks failed: %v", name, len(failed), failed[0].Err)
	}
	var after int64
	for _, tr := range trackers {
		after += tr.Kernel.VCPU().Consumed()
	}
	res := DFSIOResult{
		Bytes:      int64(cfg.Files) * cfg.FileSize,
		JobElapsed: job.Elapsed(),
		CPUCycles:  after - before,
	}
	for _, tr := range job.Results {
		res.IOTime += tr.Value.(time.Duration)
	}
	return res, nil
}

// CleanDFSIO removes the test files (between write and re-write runs).
func CleanDFSIO(p *sim.Proc, client *hdfs.Client, cfg DFSIOConfig) error {
	cfg = cfg.WithDefaults()
	for i := 0; i < cfg.Files; i++ {
		if err := client.DeleteFile(p, cfg.filePath(i)); err != nil {
			return err
		}
	}
	return nil
}
