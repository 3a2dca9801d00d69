// Package experiments reproduces every figure and table of the paper's
// evaluation (§5). Each Run* function builds the corresponding testbed
// (Figure 10's shape), runs the workload, and returns typed rows. Registry
// lists every experiment once, with its id, title and the paper's reported
// value, and draws its rows as a Table: one text renderer and one CSV
// renderer serve every experiment (cmd/vread-bench prints them).
//
// Dataset sizes scale with Options.Scale (1.0 = paper sizes: 1 GB micro
// reads, 5 GB TestDFSIO, 5 M HBase rows, 30 M Hive rows). The default is
// 0.05 so the whole registry runs in seconds; shapes are stable across
// scales because every cache is scaled by the same hardware constants the
// paper's testbed had.
package experiments

import (
	"fmt"
	"time"

	"vread/internal/cluster"
	"vread/internal/core"
	"vread/internal/faults"
	"vread/internal/hdfs"
	"vread/internal/mapred"
	"vread/internal/metrics"
	"vread/internal/sim"
	"vread/internal/trace"
	"vread/internal/workload"
)

// Scenario places block replicas relative to the reading client.
type Scenario int

// Scenarios of §5.2.
const (
	Colocated Scenario = iota // all blocks on the same-host datanode
	Remote                    // all blocks on the other host's datanode
	Hybrid                    // blocks alternate between the two
)

func (s Scenario) String() string {
	switch s {
	case Colocated:
		return "co-located"
	case Remote:
		return "remote"
	default:
		return "hybrid"
	}
}

// Options configures one testbed build.
type Options struct {
	// Seed drives all determinism. Default 1.
	Seed int64
	// FreqHz is the host clock (the paper sweeps 1.6/2.0/3.2 GHz).
	// Default 2.0 GHz.
	FreqHz int64
	// ExtraVMs adds the 85% lookbusy background VMs (the "4 VMs"
	// scenarios): 2 on host1, 3 on host2, per Figure 10.
	ExtraVMs bool
	// VRead enables the vRead system and installs libvread on the client.
	VRead bool
	// VReadConfig is the vRead configuration every testbed shape builds
	// from: the remote transport (RDMA default), §6's host-FS bypass and
	// the ring geometry. Leave its Faults nil: Faults below arms each
	// testbed's plan.
	VReadConfig core.Config
	// SharedMemNet enables the §2.2 shared-memory networking comparator.
	SharedMemNet bool
	// SRIOV gives every VM a passthrough NIC virtual function (§6's
	// modern-hardware interplay).
	SRIOV bool
	// ShortCircuit enables HDFS-2246 short-circuit local reads.
	ShortCircuit bool
	// Shards federates the namespace behind a router when > 1: paths hash
	// (or mount) onto Shards namenode shards and placement moves to the
	// consistent-hash ring (see internal/hdfs/federation.go).
	Shards int
	// Replication is the write-pipeline depth (default 1; the two-host
	// testbed supports up to 2).
	Replication int
	// Scale multiplies paper dataset sizes. Default 0.05.
	Scale float64
	// BlockSize overrides the HDFS block size (default 64 MiB, shrunk
	// automatically when the scaled file would have fewer than 2 blocks).
	BlockSize int64
	// Faults arms deterministic fault injection across the testbed (disk,
	// fabric, ring, daemon). The plan draws from the testbed's seeded RNG,
	// so a (Seed, Faults) pair replays identically.
	Faults faults.Spec
	// Traces, when non-nil, installs a request tracer on the testbed's
	// clients; sampled request traces accumulate here (shared across the
	// testbeds an experiment builds).
	Traces *trace.Collector
	// TraceEvery samples every Nth request (<= 1 traces all). Only
	// meaningful with Traces set.
	TraceEvery int
	// Parallel caps how many independent experiment cells (grid points,
	// ablation variants — each a whole testbed) run concurrently: 0 means
	// one per CPU, 1 forces the serial path. Results are collected by cell
	// index, so parallel runs produce byte-identical rows, CSVs and traces
	// to serial ones.
	Parallel int
	// Stats, when non-nil, accumulates engine totals (simulated event
	// counts) across every testbed the experiment builds, including
	// concurrent ones.
	Stats *RunStats
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.FreqHz == 0 {
		o.FreqHz = 2_000_000_000
	}
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	return o
}

// scaled applies the dataset scale with a floor.
func (o Options) scaled(bytes int64, floor int64) int64 {
	v := int64(float64(bytes) * o.Scale)
	if v < floor {
		v = floor
	}
	return v
}

// Testbed is one built instance of Figure 10.
type Testbed struct {
	Opt Options
	C   *cluster.Cluster
	// NS is the namespace every component talks to: the NameNode for the
	// classic single-namespace testbed, the federation Router when
	// Options.Shards > 1.
	NS hdfs.Namespace
	// NN is the standalone namenode (nil when federated — use NS).
	NN *hdfs.NameNode
	// Router is the federation router (nil unless Options.Shards > 1).
	Router  *hdfs.Router
	DN1     *hdfs.DataNode // co-located with the client (host1)
	DN2     *hdfs.DataNode // remote (host2)
	Client  *hdfs.Client
	Engine  *mapred.Engine
	Tracker *mapred.Tracker
	Mgr     *core.Manager // nil without vRead
	Lib     *core.Lib
	Tracer  *trace.Tracer // nil unless Options.Traces was set
	Faults  *faults.Plan  // nil unless Options.Faults was set
	closed  bool
}

// NewTestbed builds the two-host testbed: client(+namenode) VM and dn1 on
// host1, dn2 on host2, plus lookbusy VMs when ExtraVMs is set.
func NewTestbed(opt Options) *Testbed {
	opt = opt.withDefaults()
	params := cluster.Params{FreqHz: opt.FreqHz}
	params.Virtio.SharedMemNet = opt.SharedMemNet
	params.Virtio.SRIOV = opt.SRIOV
	c := cluster.New(opt.Seed, params)
	// The two hosts sit in distinct racks and fault domains, so replicated
	// writes through the federation ring spread across both.
	h1 := c.AddHostAt("host1", "r0", "d0")
	h2 := c.AddHostAt("host2", "r1", "d1")
	clientVM := h1.AddVM("client", metrics.TagClientApp)
	dn1VM := h1.AddVM("dn1", metrics.TagDatanodeApp)
	dn2VM := h2.AddVM("dn2", metrics.TagDatanodeApp)
	if opt.ExtraVMs {
		for i, host := range []*cluster.Host{h1, h1, h2, h2, h2} {
			hog := host.AddVM(fmt.Sprintf("hog%d", i), metrics.TagClientApp)
			workload.StartLookbusy(hog, 0.85, 0)
		}
	}

	hcfg := hdfs.Config{ShortCircuit: opt.ShortCircuit, Replication: opt.Replication}
	if opt.BlockSize != 0 {
		hcfg.BlockSize = opt.BlockSize
	}
	var ns hdfs.Namespace
	var nn *hdfs.NameNode
	var router *hdfs.Router
	if opt.Shards > 1 {
		router = hdfs.NewRouter(c.Env, hcfg, c.Fabric, hdfs.RouterOptions{
			Shards:   opt.Shards,
			RingSeed: opt.Seed,
		})
		ns = router
	} else {
		nn = hdfs.NewNameNode(c.Env, hcfg, c.Fabric)
		ns = nn
	}
	dn1 := hdfs.StartDataNode(c.Env, ns, dn1VM.Kernel)
	dn2 := hdfs.StartDataNode(c.Env, ns, dn2VM.Kernel)
	client := hdfs.NewClient(c.Env, ns, clientVM.Kernel)
	engine := mapred.NewEngine(c.Env, mapred.Config{})
	tracker := engine.AddTracker(clientVM.Kernel, client)

	tb := &Testbed{
		Opt: opt, C: c, NS: ns, NN: nn, Router: router, DN1: dn1, DN2: dn2,
		Client: client, Engine: engine, Tracker: tracker,
	}
	if opt.Traces != nil {
		tb.Tracer = trace.NewTracerInto(c.Env, opt.TraceEvery, opt.Traces)
		client.SetTracer(tb.Tracer)
	}
	if len(opt.Faults) > 0 {
		tb.Faults = opt.Faults.Plan(c.Env)
		c.InjectFaults(tb.Faults)
		if router != nil {
			router.InjectFaults(tb.Faults)
		}
	}
	if opt.VRead {
		vcfg := opt.VReadConfig
		vcfg.Faults = tb.Faults
		tb.Mgr = core.NewManager(c, ns, vcfg)
		tb.Mgr.MountDatanode("dn1")
		tb.Mgr.MountDatanode("dn2")
		tb.Lib = tb.Mgr.EnableClient("client")
		client.SetBlockReader(tb.Lib)
	}
	return tb
}

// Place sets the namenode placement policy for the scenario.
func (tb *Testbed) Place(s Scenario) {
	n := 0
	tb.NS.SetPlacementPolicy(func(clientVM, _ string, replication int) []string {
		switch s {
		case Colocated:
			return []string{"dn1"}
		case Remote:
			return []string{"dn2"}
		default:
			n++
			if n%2 == 1 {
				return []string{"dn1"}
			}
			return []string{"dn2"}
		}
	})
}

// Run drives fn as a simulated process and fails with an error if it does
// not complete within the (virtual) deadline.
func (tb *Testbed) Run(name string, deadline time.Duration, fn func(p *sim.Proc) error) error {
	done := false
	var ferr error
	tb.C.Go(name, func(p *sim.Proc) {
		ferr = fn(p)
		done = true
		// Freeze the clock at completion so post-run utilization windows
		// measure the workload, not idle tail time.
		tb.C.Env.Stop()
	})
	if err := tb.C.Env.RunUntil(tb.C.Env.Now() + deadline); err != nil {
		return fmt.Errorf("experiments: %s: %w", name, err)
	}
	if !done {
		return fmt.Errorf("experiments: %s did not finish within %v (virtual)", name, deadline)
	}
	return ferr
}

// DropAllCaches empties every guest and host cache (the experiments' cold
// start between runs).
func (tb *Testbed) DropAllCaches() {
	for _, vm := range tb.C.AllVMs() {
		vm.Kernel.DropCaches()
	}
	tb.C.Host("host1").Cache.DropAll()
	tb.C.Host("host2").Cache.DropAll()
}

// Close shuts the testbed down, harvesting the Env's fired-event and resume
// totals into Options.Stats. Idempotent, so error paths may close eagerly.
func (tb *Testbed) Close() {
	if tb.closed {
		return
	}
	tb.closed = true
	tb.Opt.Stats.addEnv(tb.C.Env)
	tb.C.Close()
}

// sysName labels a config for output rows.
func sysName(vread bool) string {
	if vread {
		return "vRead"
	}
	return "vanilla"
}

// GHz formats a frequency like the paper's axes.
func GHz(freqHz int64) string {
	return fmt.Sprintf("%.1fGHz", float64(freqHz)/1e9)
}

// PaperFreqs is the paper's cpufreq sweep.
var PaperFreqs = []int64{1_600_000_000, 2_000_000_000, 3_200_000_000}
