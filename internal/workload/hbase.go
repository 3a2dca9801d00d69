package workload

import (
	"fmt"
	"math/rand"
	"time"

	"vread/internal/data"
	"vread/internal/hdfs"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// HBase-0.94 PerformanceEvaluation layout and region-server costs.
const (
	// hbaseRowBytes is PE's default value size.
	hbaseRowBytes = 1 << 10
	// hfiles is the number of store files a table is written as.
	hfiles = 4
	// hfileBlockBytes is the HFile block read per get or scan step
	// (HBase-0.94's default block size).
	hfileBlockBytes = 64 << 10
	// getCycles is region-server CPU per get (RPC, memstore/bloom checks,
	// KeyValue handling).
	getCycles = 800_000
	// scanRowCycles is per-row CPU during scans (scanner heap, KeyValue
	// comparisons, client round trips amortized).
	scanRowCycles = 260_000
	// decodeCyclesPerKB decodes block bytes into KeyValues.
	decodeCyclesPerKB = 400
	// hbaseDir is the HDFS directory of the table.
	hbaseDir = "/hbase/TestTable"
)

// HBaseConfig parameterizes the HBase PerformanceEvaluation emulation
// (Table 2). The store models HBase-0.94 semantics at the HDFS boundary:
// a table is a set of HFiles in HDFS; gets pread one HFile block and decode
// it; scans stream whole files; the region server's own CPU work per
// operation is a calibrated constant.
type HBaseConfig struct {
	// Rows in the table. The paper inserts 5 million. Default 100k (tests
	// scale it up via experiments).
	Rows int64
	// Seed varies content and the random-read sequence.
	Seed uint64
}

// WithDefaults fills zero fields.
func (c HBaseConfig) WithDefaults() HBaseConfig {
	if c.Rows == 0 {
		c.Rows = 100_000
	}
	return c
}

// HBase is one loaded table.
type HBase struct {
	cfg     HBaseConfig
	client  *hdfs.Client
	rowsPer int64 // rows per HFile
}

// SetupHBase loads the table into HDFS (PE's SequentialWrite phase).
func SetupHBase(p *sim.Proc, client *hdfs.Client, cfg HBaseConfig) (*HBase, error) {
	cfg = cfg.WithDefaults()
	h := &HBase{cfg: cfg, client: client, rowsPer: (cfg.Rows + hfiles - 1) / hfiles}
	for f := 0; f < hfiles; f++ {
		rows := h.rowsInFile(f)
		if rows == 0 {
			continue
		}
		content := data.Pattern{Seed: cfg.Seed + uint64(f), Size: rows * hbaseRowBytes}
		if err := client.WriteFile(p, hfilePath(f), content); err != nil {
			return nil, err
		}
	}
	return h, nil
}

func hfilePath(f int) string { return fmt.Sprintf("%s/hfile_%d", hbaseDir, f) }

func (h *HBase) rowsInFile(f int) int64 {
	start := int64(f) * h.rowsPer
	if start >= h.cfg.Rows {
		return 0
	}
	rows := h.cfg.Rows - start
	if rows > h.rowsPer {
		rows = h.rowsPer
	}
	return rows
}

// locate maps a row to (file index, byte offset).
func (h *HBase) locate(row int64) (int, int64) {
	f := int(row / h.rowsPer)
	return f, (row % h.rowsPer) * hbaseRowBytes
}

// PEResult is one PerformanceEvaluation phase's outcome.
type PEResult struct {
	Rows    int64
	Bytes   int64
	Elapsed time.Duration
}

// MBps is Table 2's unit: row-data megabytes per second.
func (r PEResult) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}

// Scan walks the whole table in row order (PE's scan phase): the region
// server preads HFile blocks positionally and runs the scanner heap over
// each row.
func (h *HBase) Scan(p *sim.Proc, rows int64) (PEResult, error) {
	if rows > h.cfg.Rows {
		rows = h.cfg.Rows
	}
	env := h.client.Kernel().Env()
	vcpu := h.client.Kernel().VCPU()
	start := env.Now()
	var scanned, carry int64
	for f := 0; f < hfiles && scanned < rows; f++ {
		r, err := h.client.Open(p, hfilePath(f))
		if err != nil {
			return PEResult{}, err
		}
		size := h.rowsInFile(f) * hbaseRowBytes
		for off := int64(0); off < size && scanned < rows; off += hfileBlockBytes {
			n := min(size-off, hfileBlockBytes)
			s, err := r.ReadAt(p, off, n)
			if err != nil {
				r.Close(p)
				return PEResult{}, err
			}
			carry += s.Len()
			rowsInBlock := carry / hbaseRowBytes
			carry -= rowsInBlock * hbaseRowBytes
			vcpu.Run(p, rowsInBlock*scanRowCycles+n*decodeCyclesPerKB/1024, metrics.TagClientApp)
			scanned += rowsInBlock
		}
		r.Close(p)
	}
	return PEResult{Rows: scanned, Bytes: scanned * hbaseRowBytes, Elapsed: env.Now() - start}, nil
}

// SequentialRead gets rows 0..n-1 one by one (PE's sequentialRead phase).
func (h *HBase) SequentialRead(p *sim.Proc, rows int64) (PEResult, error) {
	return h.gets(p, rows, nil)
}

// RandomRead gets n uniformly random rows (PE's randomRead phase).
func (h *HBase) RandomRead(p *sim.Proc, rows int64, rng *rand.Rand) (PEResult, error) {
	return h.gets(p, rows, rng)
}

// gets performs row GETs: region-server CPU, one HFile-block pread through
// HDFS, block decode.
func (h *HBase) gets(p *sim.Proc, rows int64, rng *rand.Rand) (PEResult, error) {
	env := h.client.Kernel().Env()
	vcpu := h.client.Kernel().VCPU()
	readers := make([]*hdfs.FileReader, hfiles)
	defer func() {
		for _, r := range readers {
			if r != nil {
				r.Close(p)
			}
		}
	}()
	start := env.Now()
	for i := int64(0); i < rows; i++ {
		row := i % h.cfg.Rows
		if rng != nil {
			row = rng.Int63n(h.cfg.Rows)
		}
		f, off := h.locate(row)
		if readers[f] == nil {
			r, err := h.client.Open(p, hfilePath(f))
			if err != nil {
				return PEResult{}, err
			}
			readers[f] = r
		}
		vcpu.Run(p, getCycles, metrics.TagClientApp)
		blockOff := off - off%hfileBlockBytes
		n := min(hfileBlockBytes, h.rowsInFile(f)*hbaseRowBytes-blockOff)
		if _, err := readers[f].ReadAt(p, blockOff, n); err != nil {
			return PEResult{}, err
		}
		vcpu.Run(p, n*decodeCyclesPerKB/1024, metrics.TagClientApp)
	}
	return PEResult{Rows: rows, Bytes: rows * hbaseRowBytes, Elapsed: env.Now() - start}, nil
}
