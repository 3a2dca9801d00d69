// Command vread-sim runs one custom scenario on the simulated testbed and
// prints throughput, delay, and per-entity CPU breakdowns — a workbench for
// exploring the model outside the paper's fixed experiment grid.
//
// Usage:
//
//	vread-sim [-vread] [-scenario co-located|remote|hybrid] [-freq-ghz 2.0]
//	          [-hogs] [-size-mb 256] [-buffer-kb 1024] [-transport rdma|tcp]
//	          [-bypass] [-seed 1]
//	          [-faults "disk.read.slow:p=0.2,delay=2ms;daemon.crash:after=10,max=1"]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vread"
	"vread/internal/data"
	"vread/internal/metrics"
	"vread/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vread-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	useVRead := flag.Bool("vread", false, "enable vRead")
	scenario := flag.String("scenario", "co-located", "block placement (co-located|remote|hybrid)")
	freqGHz := flag.Float64("freq-ghz", 2.0, "host CPU frequency in GHz")
	hogs := flag.Bool("hogs", false, "add the 85% lookbusy background VMs (4-VM setups)")
	sizeMB := flag.Int64("size-mb", 256, "file size to write and read")
	bufferKB := flag.Int64("buffer-kb", 1024, "application read buffer")
	transport := flag.String("transport", "rdma", "remote daemon transport (rdma|tcp)")
	bypass := flag.Bool("bypass", false, "daemon bypasses the host FS (§6 ablation)")
	seed := flag.Int64("seed", 1, "simulation seed")
	faultSpec := flag.String("faults", "", "deterministic fault plan (point[:p=..,after=..,max=..,delay=..];...)")
	configPath := flag.String("config", "", "JSON scenario file (overrides the other flags)")
	sloPath := flag.String("slo", "", "write scale-out SLO rows as JSON to this file (scale_out scenarios)")
	blackoutPath := flag.String("blackout", "", "write migration blackout rows as JSON to this file (migrate scenarios)")
	flag.Parse()

	var opt vread.Options
	var place vread.Scenario
	if *configPath != "" {
		raw, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		var sc *vread.ScaleConfig
		var mc *vread.MigrationConfig
		opt, place, sc, mc, err = vread.ParseOptions(raw)
		if err != nil {
			return fmt.Errorf("config %s: %w", *configPath, err)
		}
		if sc != nil {
			return runScale(opt, *sc, *sloPath)
		}
		if mc != nil {
			return runMigrate(opt, *mc, *blackoutPath)
		}
		*useVRead = opt.VRead
	} else {
		opt = vread.Options{
			Seed:             *seed,
			FreqHz:           int64(*freqGHz * 1e9),
			ExtraVMs:         *hogs,
			VRead:            *useVRead,
			DirectDiskBypass: *bypass,
		}
		if *transport == "tcp" {
			opt.Transport = vread.TransportTCP
		}
		switch *scenario {
		case "co-located":
			place = vread.Colocated
		case "remote":
			place = vread.Remote
		case "hybrid":
			place = vread.Hybrid
		default:
			return fmt.Errorf("unknown scenario %q", *scenario)
		}
		if *faultSpec != "" {
			spec, err := vread.ParseFaultSpec(*faultSpec)
			if err != nil {
				return err
			}
			opt.Faults = spec
		}
	}

	tb := vread.NewTestbed(opt)
	defer tb.Close()
	tb.Place(place)

	size := *sizeMB << 20
	content := data.Pattern{Seed: uint64(*seed), Size: size}
	var writeTime, coldTime, warmTime time.Duration
	err := tb.Run("vread-sim", 24*time.Hour, func(p *sim.Proc) error {
		start := tb.C.Env.Now()
		if err := tb.Client.WriteFile(p, "/sim/file", content); err != nil {
			return err
		}
		writeTime = tb.C.Env.Now() - start

		tb.DropAllCaches()
		tb.C.Reg.MarkWindow(tb.C.Env.Now())
		start = tb.C.Env.Now()
		if err := readAll(p, tb, *bufferKB<<10); err != nil {
			return err
		}
		coldTime = tb.C.Env.Now() - start

		start = tb.C.Env.Now()
		if err := readAll(p, tb, *bufferKB<<10); err != nil {
			return err
		}
		warmTime = tb.C.Env.Now() - start
		return nil
	})
	if err != nil {
		return err
	}

	sys := "vanilla"
	if opt.VRead {
		sys = "vRead"
	}
	fmt.Printf("scenario=%s system=%s freq=%.1fGHz hogs=%v size=%dMB buffer=%dKB\n\n",
		place, sys, float64(tb.Opt.FreqHz)/1e9, opt.ExtraVMs, *sizeMB, *bufferKB)
	fmt.Printf("write:      %10.1f MB/s  (%v)\n", metrics.Throughput(size, writeTime), writeTime.Round(time.Millisecond))
	fmt.Printf("cold read:  %10.1f MB/s  (%v)\n", metrics.Throughput(size, coldTime), coldTime.Round(time.Millisecond))
	fmt.Printf("warm read:  %10.1f MB/s  (%v)\n\n", metrics.Throughput(size, warmTime), warmTime.Round(time.Millisecond))

	now := tb.C.Env.Now()
	fmt.Println("CPU utilization during reads (fraction of one core):")
	for _, entity := range tb.C.Reg.Entities() {
		u := tb.C.Reg.EntityUtilization(entity, now, opt.FreqHz)
		if u < 0.001 {
			continue
		}
		fmt.Printf("%-22s %6.1f%%\n", entity, u*100)
		fmt.Print(metrics.FormatBreakdown(tb.C.Reg.Breakdown(entity, now, opt.FreqHz)))
	}
	if tb.Mgr != nil {
		st := tb.Mgr.Daemon("client").Stats()
		fmt.Printf("\nvRead daemon: opens=%d misses=%d localMB=%d remoteMB=%d\n",
			st.Opens, st.OpenMisses, st.BytesLocal>>20, st.BytesRemote>>20)
	}
	if tb.Faults != nil {
		fmt.Println("\nfault injection:")
		for _, pc := range tb.Faults.Counts() {
			fmt.Printf("%-20s evals=%-6d fired=%d\n", pc.Point, pc.Evals, pc.Fires)
		}
		if tb.Mgr != nil {
			st := tb.Mgr.Daemon("client").Stats()
			fmt.Printf("degradation: lib-retries=%d remote-retries=%d crashes=%d doorbells-lost=%d downgrades=%d\n",
				tb.Mgr.LibStats("client").Retries, st.RemoteRetries, st.Crashes,
				st.DoorbellsLost, tb.Mgr.Downgrades())
		}
	}
	return nil
}

// runScale drives the datacenter-scale scenario: a federated namespace over
// a multi-domain topology under an open-loop storm, emitting p50/p95/p99 SLO
// rows (and, with -slo, a JSON report for CI artifacts).
func runScale(opt vread.Options, sc vread.ScaleConfig, sloPath string) error {
	rows, err := vread.RunScale(opt, sc)
	if err != nil {
		return err
	}
	fmt.Print(vread.RenderSLORows(rows))
	if sloPath == "" {
		return nil
	}
	blob, err := json.MarshalIndent(struct {
		Rows []vread.SLORow `json:"rows"`
	}{rows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(sloPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", sloPath, len(rows))
	return nil
}

// runMigrate drives the live-mount-migration blackout sweep: one cell per
// in-flight depth, every read correct or the sweep errors, blackout rows
// printed (and, with -blackout, written as JSON for CI artifacts).
func runMigrate(opt vread.Options, mc vread.MigrationConfig, blackoutPath string) error {
	rows, err := vread.RunMigrationSweep(opt, mc)
	if err != nil {
		return err
	}
	fmt.Print(vread.FormatMigration(rows))
	if blackoutPath == "" {
		return nil
	}
	blob, err := json.MarshalIndent(struct {
		Rows []vread.MigrationRow `json:"rows"`
	}{rows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(blackoutPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", blackoutPath, len(rows))
	return nil
}

func readAll(p *sim.Proc, tb *vread.Testbed, buf int64) error {
	r, err := tb.Client.Open(p, "/sim/file")
	if err != nil {
		return err
	}
	defer r.Close(p)
	for {
		if _, err := r.Read(p, buf); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return err
		}
	}
}
