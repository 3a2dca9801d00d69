package experiments

import (
	"fmt"
	"time"

	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// FaultProfile is one armed fault mix of the resilience sweep.
type FaultProfile struct {
	Name string
	Spec string // faults.ParseSpec syntax; empty = fault-free baseline
	// TCP runs the profile over the TCP daemon transport — needed for the
	// frame-level faults, which only apply to host-terminated TCP frames
	// (guest TCP has no retransmit model, and RDMA loss shows up as QP
	// teardown instead).
	TCP bool
}

// DefaultFaultProfiles is the ablation grid RunFaultSweep uses when the
// caller passes none: the baseline plus one profile per degradation
// mechanism (retry, timeout + transport downgrade, watchdog, crash
// fallback).
var DefaultFaultProfiles = []FaultProfile{
	{Name: "baseline"},
	{Name: "slow-disk", Spec: "disk.read.slow:p=0.2,delay=2ms"},
	{Name: "torn-reads", Spec: "disk.read.torn:p=0.05"},
	{Name: "lossy-net", Spec: "net.frame.drop:p=0.01", TCP: true},
	{Name: "flaky-rdma", Spec: "rdma.qp.teardown:p=0.01"},
	{Name: "lost-doorbells", Spec: "ring.doorbell.lost:p=0.3"},
	{Name: "crashy-daemon", Spec: "daemon.crash:p=0.03"},
}

// RunFaultSweep measures remote vRead read throughput under each fault
// profile — the resilience ablation: how much goodput each degradation layer
// preserves relative to the fault-free baseline. Rows also report how often
// the faultpoints fired and how many retries/downgrades the run needed, so a
// profile that silently never fired is visible in the output.
func RunFaultSweep(opt Options, profiles ...FaultProfile) ([]AblationRow, error) {
	opt = opt.withDefaults()
	if len(profiles) == 0 {
		profiles = DefaultFaultProfiles
	}
	specs := make([]faults.Spec, len(profiles))
	for i, pr := range profiles {
		if pr.Spec == "" {
			continue
		}
		spec, err := faults.ParseSpec(pr.Spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: fault profile %s: %w", pr.Name, err)
		}
		specs[i] = spec
	}
	return runCells(opt, len(profiles), func(i int, o Options) ([]AblationRow, error) {
		pr := profiles[i]
		o.VRead = true
		o.Faults = specs[i]
		if pr.TCP {
			o.VReadConfig.Transport = core.TransportTCP
		}
		tb := NewTestbed(o)
		defer tb.Close()
		tb.Place(Remote)
		fileSize := o.scaled(1<<30, 64<<20)
		const path = "/bench/faults"
		var elapsed time.Duration
		if err := tb.Run("fault-sweep-"+pr.Name, 4*time.Hour, func(p *sim.Proc) error {
			if err := tb.Client.WriteFile(p, path, data.Pattern{Seed: 17, Size: fileSize}); err != nil {
				return err
			}
			tb.DropAllCaches()
			start := tb.C.Env.Now()
			if err := readAll(p, tb, path, 1<<20); err != nil {
				return err
			}
			elapsed = tb.C.Env.Now() - start
			return nil
		}); err != nil {
			return nil, err
		}
		rows := []AblationRow{{
			Study:  "fault-sweep",
			Config: pr.Name,
			Value:  metrics.Throughput(fileSize, elapsed),
			Unit:   "MB/s cold remote read",
		}}
		if tb.Faults != nil {
			st := tb.Mgr.DaemonStats("client")
			recoveries := float64(st.RemoteRetries + st.Crashes + tb.Mgr.Downgrades() +
				tb.Mgr.LibStats("client").Retries)
			rows = append(rows,
				AblationRow{Study: "fault-sweep", Config: pr.Name, Value: float64(tb.Faults.TotalFired()), Unit: "faults fired"},
				AblationRow{Study: "fault-sweep", Config: pr.Name, Value: recoveries, Unit: "recoveries"},
			)
		}
		return rows, nil
	})
}
