// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark rebuilds the corresponding testbed and workload from
// scratch per iteration and reports the headline quantity the paper plots,
// printing the full row set once.
//
// Absolute numbers are not expected to match the authors' 2015 testbed; the
// shapes (who wins, by what rough factor) are the reproduction target and
// are recorded against the paper in EXPERIMENTS.md.
//
// Dataset scale defaults to 0.05 of paper sizes so the suite runs in
// minutes; set VREAD_BENCH_SCALE (e.g. "1.0") for paper-scale runs.
package vread

import (
	"os"
	"strconv"
	"testing"

	"vread/internal/experiments"
	"vread/internal/faults"
)

func benchOpts() Options {
	opt := Options{Seed: 1, Scale: 0.05}
	if s := os.Getenv("VREAD_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			opt.Scale = v
		}
	}
	return opt
}

// BenchmarkFig2ReadDelayMotivation regenerates Figure 2: HDFS-in-VM vs
// local-FS read delay, ±cache, request sizes 64KB/1MB/4MB.
func BenchmarkFig2ReadDelayMotivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunFig2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", FormatFig2(rows))
			// Headline: cold 1MB inter-VM/local delay ratio.
			for _, r := range rows {
				if r.ReqSize == 1<<20 && !r.Cached {
					b.ReportMetric(float64(r.InterVM)/float64(r.Local), "interVM/local")
				}
			}
		}
	}
}

// BenchmarkFig3IOThreadSync regenerates Figure 3: netperf TCP_RR rate with
// and without lookbusy VMs.
func BenchmarkFig3IOThreadSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunFig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", FormatFig3(rows))
			rate := map[[2]int64]float64{}
			for _, r := range rows {
				rate[[2]int64{r.ReqSize, int64(r.VMs)}] = r.Rate
			}
			drop := (1 - rate[[2]int64{32 << 10, 4}]/rate[[2]int64{32 << 10, 2}]) * 100
			b.ReportMetric(drop, "%drop-4vms")
		}
	}
}

// BenchmarkFig6CPUColocated regenerates Figure 6: CPU breakdowns for the
// co-located read.
func BenchmarkFig6CPUColocated(b *testing.B) {
	benchBreakdown(b, "Figure 6 (co-located)", RunFig6)
}

// BenchmarkFig7CPURemoteRDMA regenerates Figure 7: CPU breakdowns for the
// remote read over RDMA daemons.
func BenchmarkFig7CPURemoteRDMA(b *testing.B) {
	benchBreakdown(b, "Figure 7 (remote, RDMA)", RunFig7)
}

// BenchmarkFig8CPURemoteTCP regenerates Figure 8: CPU breakdowns for the
// remote read over TCP daemons.
func BenchmarkFig8CPURemoteTCP(b *testing.B) {
	benchBreakdown(b, "Figure 8 (remote, TCP)", RunFig8)
}

func benchBreakdown(b *testing.B, title string, run func(Options) ([]BreakdownRow, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", FormatBreakdowns(title, rows))
			var vr, va float64
			for _, r := range rows {
				if r.Side == "datanode" {
					if r.System == "vRead" {
						vr = r.Total()
					} else {
						va = r.Total()
					}
				}
			}
			if va > 0 {
				b.ReportMetric((1-vr/va)*100, "%dn-cpu-saved")
			}
		}
	}
}

// BenchmarkFig9ReadDelay regenerates Figure 9: vanilla vs vRead read delay.
func BenchmarkFig9ReadDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunFig9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", FormatFig9(rows))
			var maxRed float64
			for _, r := range rows {
				if red := (1 - float64(r.VRead)/float64(r.Vanilla)) * 100; red > maxRed {
					maxRed = red
				}
			}
			b.ReportMetric(maxRed, "%max-delay-reduction")
		}
	}
}

// BenchmarkFig11DFSIOThroughput regenerates Figure 11's full grid
// (scenario × VMs × frequency × system, read and re-read).
func BenchmarkFig11DFSIOThroughput(b *testing.B) {
	benchDFSIO(b, true)
}

// BenchmarkFig12DFSIOCPUTime regenerates Figure 12 from the same grid.
func BenchmarkFig12DFSIOCPUTime(b *testing.B) {
	benchDFSIO(b, false)
}

func benchDFSIO(b *testing.B, throughput bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := RunFig11and12(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", FormatDFSIO(rows))
			get := func(sys, mode string) float64 {
				for _, r := range rows {
					if r.Scenario == Colocated && r.VMs == 2 && r.FreqHz == 2_000_000_000 &&
						r.System == sys && r.Mode == mode {
						if throughput {
							return r.Throughput
						}
						return r.CPUTimeMs
					}
				}
				return 0
			}
			if throughput {
				b.ReportMetric((get("vRead", "read")/get("vanilla", "read")-1)*100, "%read-gain")
				b.ReportMetric((get("vRead", "re-read")/get("vanilla", "re-read")-1)*100, "%reread-gain")
			} else {
				b.ReportMetric((1-get("vRead", "read")/get("vanilla", "read"))*100, "%cpu-saved")
			}
		}
	}
}

// BenchmarkFig13WriteThroughput regenerates Figure 13: write throughput
// with the vRead refresh on the write path.
func BenchmarkFig13WriteThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunFig13(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", FormatFig13(rows))
			var vr, va float64
			for _, r := range rows {
				if r.Scenario == Colocated {
					if r.System == "vRead" {
						vr = r.Throughput
					} else {
						va = r.Throughput
					}
				}
			}
			b.ReportMetric((1-vr/va)*100, "%write-overhead")
		}
	}
}

// BenchmarkTable2HBase regenerates Table 2: HBase PE scan / sequential /
// random read throughput.
func BenchmarkTable2HBase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunTable2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", FormatTable2(rows))
			for _, r := range rows {
				b.ReportMetric(r.Improvement(), "%"+r.Phase)
			}
		}
	}
}

// BenchmarkTable3HiveSqoop regenerates Table 3: Hive select and Sqoop
// export completion times.
func BenchmarkTable3HiveSqoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunTable3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", FormatTable3(rows))
			for _, r := range rows {
				b.ReportMetric(r.Reduction(), "%"+r.Workload[:4])
			}
		}
	}
}

// BenchmarkAblationRingSlots sweeps the ring geometry (§3.3's 1024×4KiB
// slots, batched doorbells).
func BenchmarkAblationRingSlots(b *testing.B) { benchAblation(b, RunAblationRingSlots) }

// BenchmarkAblationDirectRead compares the mounted-FS daemon path with §6's
// raw-device bypass.
func BenchmarkAblationDirectRead(b *testing.B) { benchAblation(b, RunAblationDirectRead) }

// BenchmarkAblationRemoteTransport compares RDMA and TCP daemon transports.
func BenchmarkAblationRemoteTransport(b *testing.B) { benchAblation(b, RunAblationTransport) }

// BenchmarkAblationShortCircuit compares §2.2's alternatives (vanilla,
// shared-memory networking, short-circuit local reads, vRead).
func BenchmarkAblationShortCircuit(b *testing.B) { benchAblation(b, RunAblationShortCircuit) }

// BenchmarkAblationSRIOV reproduces §6's modern-hardware interplay:
// SR-IOV helps the wire, vRead removes the datanode VM, and they compose.
func BenchmarkAblationSRIOV(b *testing.B) { benchAblation(b, RunAblationSRIOV) }

// BenchmarkFaultOverhead measures what an armed-but-silent fault plan costs
// (DESIGN.md §9): one co-located vRead DFSIO point with no plan, then with
// every faultpoint armed at probability zero, so each injection site is
// evaluated on the hot path but never fires. Both sub-benchmarks simulate
// the same events; their ns/op should agree within noise.
func BenchmarkFaultOverhead(b *testing.B) {
	var silent faults.Spec
	for _, pt := range faults.Points() {
		silent = append(silent, faults.Rule{Point: pt, Prob: 0})
	}
	for _, bc := range []struct {
		name string
		spec faults.Spec
	}{
		{"off", nil},
		{"armed-never-fire", silent},
	} {
		b.Run(bc.name, func(b *testing.B) {
			stats := &experiments.RunStats{}
			opt := benchOpts()
			opt.VRead, opt.Faults, opt.Stats = true, bc.spec, stats
			for i := 0; i < b.N; i++ {
				if _, err := RunDFSIOPoint(opt, Colocated, 2, 0, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.Events())/float64(b.N), "events/op")
		})
	}
}

func benchAblation(b *testing.B, run func(Options) ([]AblationRow, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", FormatAblations(rows))
		}
	}
}
