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
	"math"
	"os"
	"time"

	"vread"
	"vread/internal/data"
	"vread/internal/metrics"
	"vread/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vread-sim:", err)
		os.Exit(1)
	}
}

// cli is vread-sim's validated command line.
type cli struct {
	useVRead, hogs, bypass            bool
	scenario, transport, faultSpec    string
	configPath, sloPath, blackoutPath string
	freqGHz                           float64
	sizeMB, bufferKB, seed            int64
	place                             vread.Scenario // parsed from scenario
}

// parseFlags parses and range-checks the command line, so a bad value fails
// here with the flag named instead of panicking, hanging, or running
// something else deep inside the simulation.
func parseFlags(args []string) (*cli, error) {
	var c cli
	fs := flag.NewFlagSet("vread-sim", flag.ExitOnError)
	fs.BoolVar(&c.useVRead, "vread", false, "enable vRead")
	fs.StringVar(&c.scenario, "scenario", "co-located", "block placement (co-located|remote|hybrid)")
	fs.Float64Var(&c.freqGHz, "freq-ghz", 2.0, "host CPU frequency in GHz")
	fs.BoolVar(&c.hogs, "hogs", false, "add the 85% lookbusy background VMs (4-VM setups)")
	fs.Int64Var(&c.sizeMB, "size-mb", 256, "file size to write and read")
	fs.Int64Var(&c.bufferKB, "buffer-kb", 1024, "application read buffer")
	fs.StringVar(&c.transport, "transport", "rdma", "remote daemon transport (rdma|tcp)")
	fs.BoolVar(&c.bypass, "bypass", false, "daemon bypasses the host FS (§6 ablation)")
	fs.Int64Var(&c.seed, "seed", 1, "simulation seed")
	fs.StringVar(&c.faultSpec, "faults", "", "deterministic fault plan (point[:p=..,after=..,max=..,delay=..];...)")
	fs.StringVar(&c.configPath, "config", "", "JSON scenario file (overrides the other flags)")
	fs.StringVar(&c.sloPath, "slo", "", "write scale-out SLO rows as JSON to this file (scale_out scenarios)")
	fs.StringVar(&c.blackoutPath, "blackout", "", "write migration blackout rows as JSON to this file (migrate scenarios)")
	fs.Parse(args)

	switch {
	case !(c.freqGHz*1e9 >= 1 && c.freqGHz*1e9 < math.MaxInt64):
		return nil, fmt.Errorf("-freq-ghz %v out of range (want > 0)", c.freqGHz)
	case c.sizeMB <= 0 || c.sizeMB > math.MaxInt64>>20:
		return nil, fmt.Errorf("-size-mb %d out of range (want > 0)", c.sizeMB)
	case c.bufferKB <= 0 || c.bufferKB > math.MaxInt64>>10:
		return nil, fmt.Errorf("-buffer-kb %d out of range (want > 0)", c.bufferKB)
	case c.transport != "rdma" && c.transport != "tcp":
		return nil, fmt.Errorf("-transport: unknown transport %q (want rdma or tcp)", c.transport)
	}
	switch c.scenario {
	case "co-located":
		c.place = vread.Colocated
	case "remote":
		c.place = vread.Remote
	case "hybrid":
		c.place = vread.Hybrid
	default:
		return nil, fmt.Errorf("-scenario: unknown scenario %q (want co-located, remote or hybrid)", c.scenario)
	}
	return &c, nil
}

func run(args []string) error {
	c, err := parseFlags(args)
	if err != nil {
		return err
	}
	var opt vread.Options
	var place vread.Scenario
	var sc *vread.ScaleConfig
	var mc *vread.MigrationConfig
	if c.configPath != "" {
		raw, err := os.ReadFile(c.configPath)
		if err != nil {
			return err
		}
		opt, place, sc, mc, err = vread.ParseOptions(raw)
		if err != nil {
			return fmt.Errorf("config %s: %w", c.configPath, err)
		}
	}
	// A report flag the scenario cannot fill is an error, not a silent no-op.
	if c.sloPath != "" && sc == nil {
		return fmt.Errorf("-slo: only a -config scenario with a scale_out block writes SLO rows")
	}
	if c.blackoutPath != "" && mc == nil {
		return fmt.Errorf("-blackout: only a -config scenario with a migrate block writes blackout rows")
	}
	switch {
	case sc != nil:
		return runScale(opt, *sc, c.sloPath)
	case mc != nil:
		return runMigrate(opt, *mc, c.blackoutPath)
	case c.configPath == "":
		opt = vread.Options{
			Seed:        c.seed,
			FreqHz:      int64(c.freqGHz * 1e9),
			ExtraVMs:    c.hogs,
			VRead:       c.useVRead,
			VReadConfig: vread.VReadConfig{DirectDiskBypass: c.bypass},
		}
		if c.transport == "tcp" {
			opt.VReadConfig.Transport = vread.TransportTCP
		}
		place = c.place
		if c.faultSpec != "" {
			spec, err := vread.ParseFaultSpec(c.faultSpec)
			if err != nil {
				return err
			}
			opt.Faults = spec
		}
	}

	tb := vread.NewTestbed(opt)
	defer tb.Close()
	tb.Place(place)

	size := c.sizeMB << 20
	content := data.Pattern{Seed: uint64(tb.Opt.Seed), Size: size}
	var writeTime, coldTime, warmTime time.Duration
	err = tb.Run("vread-sim", 24*time.Hour, func(p *sim.Proc) error {
		start := tb.C.Env.Now()
		if err := tb.Client.WriteFile(p, "/sim/file", content); err != nil {
			return err
		}
		writeTime = tb.C.Env.Now() - start

		tb.DropAllCaches()
		tb.C.Reg.MarkWindow(tb.C.Env.Now())
		start = tb.C.Env.Now()
		if err := readAll(p, tb, c.bufferKB<<10); err != nil {
			return err
		}
		coldTime = tb.C.Env.Now() - start

		start = tb.C.Env.Now()
		if err := readAll(p, tb, c.bufferKB<<10); err != nil {
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
		place, sys, float64(tb.Opt.FreqHz)/1e9, opt.ExtraVMs, c.sizeMB, c.bufferKB)
	fmt.Printf("write:      %10.1f MB/s  (%v)\n", metrics.Throughput(size, writeTime), writeTime.Round(time.Millisecond))
	fmt.Printf("cold read:  %10.1f MB/s  (%v)\n", metrics.Throughput(size, coldTime), coldTime.Round(time.Millisecond))
	fmt.Printf("warm read:  %10.1f MB/s  (%v)\n\n", metrics.Throughput(size, warmTime), warmTime.Round(time.Millisecond))

	now := tb.C.Env.Now()
	fmt.Println("CPU utilization during reads (fraction of one core):")
	for _, entity := range tb.C.Reg.Entities() {
		u := tb.C.Reg.EntityUtilization(entity, now, tb.Opt.FreqHz)
		if u < 0.001 {
			continue
		}
		fmt.Printf("%-22s %6.1f%%\n", entity, u*100)
		fmt.Print(metrics.FormatBreakdown(tb.C.Reg.Breakdown(entity, now, tb.Opt.FreqHz)))
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
	return writeReport(sloPath, rows)
}

// runMigrate drives the live-mount-migration blackout sweep: one cell per
// in-flight depth, every read correct or the sweep errors, blackout rows
// printed (and, with -blackout, written as JSON for CI artifacts).
func runMigrate(opt vread.Options, mc vread.MigrationConfig, blackoutPath string) error {
	rows, err := vread.RunMigrationSweep(opt, mc)
	if err != nil {
		return err
	}
	fmt.Print(vread.MigrationTable(rows).Text())
	return writeReport(blackoutPath, rows)
}

// writeReport writes rows to path as a {"rows": [...]} JSON report; an empty
// path writes nothing.
func writeReport[R any](path string, rows []R) error {
	if path == "" {
		return nil
	}
	blob, err := json.MarshalIndent(struct {
		Rows []R `json:"rows"`
	}{rows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(rows))
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
