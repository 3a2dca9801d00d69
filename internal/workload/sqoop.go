package workload

import (
	"errors"
	"fmt"
	"io"
	"time"

	"vread/internal/mapred"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// Sqoop-1.x export costs.
const (
	// sqoopBatchRows is the rows per INSERT statement batch.
	sqoopBatchRows = 1000
	// sqoopRowCycles is Sqoop's per-record serialization cost.
	sqoopRowCycles = 500
)

// SqoopConfig parameterizes the Sqoop export study (Table 3, column 3):
// reading the Hive table from HDFS and inserting it into a MySQL database
// on another machine. The database is modeled as a fixed-rate external sink
// — the paper notes export performance is bounded by both HDFS read
// efficiency and MySQL insert efficiency, and vRead only helps the former.
type SqoopConfig struct {
	// Table is the Hive table layout being exported.
	Table HiveConfig
	// SinkRowsPerSec is MySQL's per-connection insert service rate: each
	// mapper's JDBC batches execute synchronously against it, so within a
	// mapper reads and inserts serialize (Sqoop-1.x behavior).
	// Default 450_000.
	SinkRowsPerSec float64
}

// WithDefaults fills zero fields.
func (c SqoopConfig) WithDefaults() SqoopConfig {
	c.Table = c.Table.WithDefaults()
	if c.SinkRowsPerSec == 0 {
		c.SinkRowsPerSec = 450_000
	}
	return c
}

// SqoopResult is one export's outcome.
type SqoopResult struct {
	Rows    int64
	Elapsed time.Duration
}

// RunSqoopExport exports the table as a MapReduce job (one map per table
// file). Each batch is read from HDFS, serialized, then inserted into the
// rate-limited external sink; read latency and sink pacing overlap only
// within a batch boundary, like Sqoop's synchronous JDBC batches.
func RunSqoopExport(p *sim.Proc, e *mapred.Engine, cfg SqoopConfig) (SqoopResult, error) {
	cfg = cfg.WithDefaults()
	env := p.Env()
	// Each mapper holds one JDBC connection; a batch insert blocks that
	// mapper for the batch's service time at the per-connection rate.
	sinkInsert := func(tp *sim.Proc, rows int64) {
		tp.Sleep(time.Duration(float64(rows) / cfg.SinkRowsPerSec * float64(time.Second)))
	}
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
			var exported, carry int64
			const batchBytes = sqoopBatchRows * hiveRowBytes
			for {
				s, err := r.Read(tp, batchBytes)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return nil, err
				}
				carry += s.Len()
				rows := carry / hiveRowBytes
				carry -= rows * hiveRowBytes
				tr.Kernel.VCPU().Run(tp, rows*sqoopRowCycles, metrics.TagClientApp)
				// Synchronous JDBC batch insert into the external database.
				sinkInsert(tp, rows)
				exported += rows
			}
			return exported, nil
		}}
	}
	job := e.Run(p, "sqoop-export", tasks)
	if failed := job.Failed(); len(failed) > 0 {
		return SqoopResult{}, fmt.Errorf("workload: sqoop: %v", failed[0].Err)
	}
	var rows int64
	for _, tr := range job.Results {
		rows += tr.Value.(int64)
	}
	return SqoopResult{Rows: rows, Elapsed: env.Now() - start}, nil
}
