package workload

import (
	"errors"
	"fmt"
	"io"
	"time"

	"vread/internal/data"
	"vread/internal/hdfs"
	"vread/internal/mapred"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// Hive table layout and per-row costs.
const (
	// hiveRowBytes is one user record (id, name, birthday, ...).
	hiveRowBytes = 350
	// hiveFiles is the number of files the table is stored as.
	hiveFiles = 4
	// filterCyclesPerRow is deserialization + predicate evaluation.
	filterCyclesPerRow = 400
	// hiveDir is the HDFS directory of the table.
	hiveDir = "/user/hive/warehouse/test"
)

// HiveConfig parameterizes the Hive study (Table 3, column 2): a table of
// user records in HDFS and a `select * from test where id >= x and id <= y`
// full scan, run as a MapReduce job (one map per table file).
type HiveConfig struct {
	// Rows in the table. The paper loads 30 million. Default 1M.
	Rows int64
	// Seed varies content.
	Seed uint64
}

// WithDefaults fills zero fields.
func (c HiveConfig) WithDefaults() HiveConfig {
	if c.Rows == 0 {
		c.Rows = 1_000_000
	}
	return c
}

func hivePath(f int) string { return fmt.Sprintf("%s/part-%05d", hiveDir, f) }

// SetupHiveTable loads the table into HDFS.
func SetupHiveTable(p *sim.Proc, client *hdfs.Client, cfg HiveConfig) error {
	cfg = cfg.WithDefaults()
	perFile := (cfg.Rows + hiveFiles - 1) / hiveFiles
	remaining := cfg.Rows
	for f := 0; f < hiveFiles && remaining > 0; f++ {
		rows := min(perFile, remaining)
		content := data.Pattern{Seed: cfg.Seed + uint64(f), Size: rows * hiveRowBytes}
		if err := client.WriteFile(p, hivePath(f), content); err != nil {
			return err
		}
		remaining -= rows
	}
	return nil
}

// HiveResult is one query's outcome.
type HiveResult struct {
	Rows    int64
	Bytes   int64
	Elapsed time.Duration
}

// RunHiveSelect executes the range-select scan as a MapReduce job and
// returns the query completion time (Table 3's metric).
func RunHiveSelect(p *sim.Proc, e *mapred.Engine, cfg HiveConfig) (HiveResult, error) {
	cfg = cfg.WithDefaults()
	env := p.Env()
	start := env.Now()
	tasks := make([]mapred.Task, hiveFiles)
	for f := range tasks {
		f := f
		tasks[f] = mapred.Task{ID: f, Fn: func(tp *sim.Proc, tr *mapred.Tracker) (interface{}, error) {
			r, err := tr.Client.Open(tp, hivePath(f))
			if err != nil {
				return nil, err
			}
			defer r.Close(tp)
			var scanned, carry int64
			for {
				s, err := r.Read(tp, 128<<10)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return nil, err
				}
				carry += s.Len()
				rows := carry / hiveRowBytes
				carry -= rows * hiveRowBytes
				tr.Kernel.VCPU().Run(tp, rows*filterCyclesPerRow, metrics.TagClientApp)
				scanned += rows
			}
			return scanned, nil
		}}
	}
	job := e.Run(p, "hive-select", tasks)
	if failed := job.Failed(); len(failed) > 0 {
		return HiveResult{}, fmt.Errorf("workload: hive: %v", failed[0].Err)
	}
	var rows int64
	for _, tr := range job.Results {
		rows += tr.Value.(int64)
	}
	return HiveResult{Rows: rows, Bytes: rows * hiveRowBytes, Elapsed: env.Now() - start}, nil
}
