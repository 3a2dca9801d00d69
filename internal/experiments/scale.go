package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"vread/internal/cluster"
	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/hdfs"
	"vread/internal/metrics"
	"vread/internal/sim"
	"vread/internal/trace"
	"vread/internal/workload"
)

// ScaleConfig describes a datacenter-scale scenario: a federated namespace
// over a multi-domain topology, driven by an open-loop read storm, with an
// optional mid-storm rack kill. Zero values select a small smoke-sized
// federation; the acceptance shape (1000 hosts, 4 shards, RF 3) is just
// bigger numbers.
type ScaleConfig struct {
	// Topology: Domains × RacksPerDomain × HostsPerRack hosts.
	// Defaults 3 × 2 × 2.
	Domains        int
	RacksPerDomain int
	HostsPerRack   int
	// Shards is the namespace shard count. Default 4.
	Shards int
	// Replication is the write-pipeline depth (ring replica count).
	// Default 3.
	Replication int
	// VNodes per ring member. Default hdfs.DefaultVNodes.
	VNodes int
	// Datanodes is the datanode VM count, spread round-robin across racks.
	// Default 6.
	Datanodes int
	// Clients is the client VM count, placed in the last domain (so a rack
	// kill in an earlier domain never kills the readers). Default 2.
	Clients int
	// Files written before the storm. Default 6 (each one block).
	Files int
	// FileSize in bytes. Default 256 KiB.
	FileSize int64
	// QPSLevels are the open-loop arrival rates — one experiment cell per
	// level. Default {2000}.
	QPSLevels []float64
	// Reads is the arrival count per cell. Default 60.
	Reads int
	// KillRack names the rack a rack.kill firing takes down ("" = the
	// fault is never evaluated). Arm the rack.kill point via
	// Options.Faults, e.g. "rack.kill:after=30,max=1".
	KillRack string
	// Deadline bounds each cell in virtual time. Default 1h.
	Deadline time.Duration
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	c.Domains = cmp.Or(c.Domains, 3)
	c.RacksPerDomain = cmp.Or(c.RacksPerDomain, 2)
	c.HostsPerRack = cmp.Or(c.HostsPerRack, 2)
	c.Shards = cmp.Or(c.Shards, 4)
	c.Replication = cmp.Or(c.Replication, 3)
	c.Datanodes = cmp.Or(c.Datanodes, 6)
	c.Clients = cmp.Or(c.Clients, 2)
	c.Files = cmp.Or(c.Files, 6)
	c.FileSize = cmp.Or(c.FileSize, 256<<10)
	if len(c.QPSLevels) == 0 {
		c.QPSLevels = []float64{2000}
	}
	c.Reads = cmp.Or(c.Reads, 60)
	c.Deadline = cmp.Or(c.Deadline, time.Hour)
	return c
}

// SLORow is one p50/p95/p99 read-latency row of a scale run.
type SLORow struct {
	Cell        string  `json:"cell"`  // e.g. "qps=2000"
	Phase       string  `json:"phase"` // "steady" | "degraded"
	QPS         float64 `json:"qps"`
	Arrivals    int     `json:"arrivals"`
	OKs         int     `json:"oks"`
	TypedErrors int     `json:"typed_errors"`
	P50us       int64   `json:"p50_us"`
	P95us       int64   `json:"p95_us"`
	P99us       int64   `json:"p99_us"`
	MaxUs       int64   `json:"max_us"`
}

// String renders the row for terminal output (deterministic).
func (r SLORow) String() string {
	return fmt.Sprintf("%-12s %-9s qps=%-7g arrivals=%-4d ok=%-4d typed=%-3d p50=%dµs p95=%dµs p99=%dµs max=%dµs",
		r.Cell, r.Phase, r.QPS, r.Arrivals, r.OKs, r.TypedErrors, r.P50us, r.P95us, r.P99us, r.MaxUs)
}

// RenderSLORows renders rows one per line — the byte-identity witness the
// serial-vs-parallel determinism contract is checked against.
func RenderSLORows(rows []SLORow) string {
	out := ""
	for _, r := range rows {
		out += r.String() + "\n"
	}
	return out
}

// RunScale runs one experiment cell per QPS level — each a fresh federated
// testbed driven by an open-loop storm — and returns SLO rows in cell order
// ("steady" phase, plus "degraded" after a mid-storm rack kill). Cells run
// under the standard parallel fan-out; rows are byte-identical between
// serial and parallel runs.
func RunScale(opt Options, sc ScaleConfig) ([]SLORow, error) {
	opt = opt.withDefaults()
	sc = sc.withDefaults()
	return runCells(opt, len(sc.QPSLevels), func(i int, o Options) ([]SLORow, error) {
		return runScaleCell(o, sc, sc.QPSLevels[i])
	})
}

// Federation is the federated testbed RunScale and the chaos rack storm
// share: a sharded namespace over a multi-domain topology, with vRead on
// every datanode and client VM.
type Federation struct {
	Router  *hdfs.Router
	Mgr     *core.Manager
	Clients []*hdfs.Client // one per client VM, reading through Libs
	Libs    []*core.Lib
}

// BuildFederation builds sc's topology on the empty cluster c, arms
// vcfg.Faults on it and on the router (ring seeded with seed, blockSize 0
// for the HDFS default), and adds sc.Datanodes datanode VMs "dn<i>"
// round-robin across the racks, then one client VM per name in clients on
// the tail hosts, away from any kill of an earlier rack.
func BuildFederation(c *cluster.Cluster, sc ScaleConfig, seed, blockSize int64, vcfg core.Config, clients []string) *Federation {
	hosts := c.BuildTopology(cluster.TopologySpec{
		Domains:        sc.Domains,
		RacksPerDomain: sc.RacksPerDomain,
		HostsPerRack:   sc.HostsPerRack,
	})
	racks := c.Racks()
	c.InjectFaults(vcfg.Faults)

	dnNames := make([]string, sc.Datanodes)
	for i := range dnNames {
		rh := c.RackHosts(racks[i%len(racks)])
		dnNames[i] = fmt.Sprintf("dn%d", i)
		rh[(i/len(racks))%len(rh)].AddVM(dnNames[i], metrics.TagDatanodeApp)
	}
	for j, name := range clients {
		hosts[len(hosts)-1-j%sc.HostsPerRack].AddVM(name, metrics.TagClientApp)
	}

	f := &Federation{Router: hdfs.NewRouter(c.Env, hdfs.Config{Replication: sc.Replication, BlockSize: blockSize},
		c.Fabric, hdfs.RouterOptions{Shards: sc.Shards, RingSeed: seed, VNodes: sc.VNodes})}
	f.Router.InjectFaults(vcfg.Faults)
	for _, dn := range dnNames {
		hdfs.StartDataNode(c.Env, f.Router, c.VM(dn).Kernel)
	}
	for _, name := range clients {
		f.Clients = append(f.Clients, hdfs.NewClient(c.Env, f.Router, c.VM(name).Kernel))
	}
	f.Mgr = core.NewManager(c, f.Router, vcfg)
	for _, dn := range dnNames {
		f.Mgr.MountDatanode(dn)
	}
	for j, name := range clients {
		f.Libs = append(f.Libs, f.Mgr.EnableClient(name))
		f.Clients[j].SetBlockReader(f.Libs[j])
	}
	return f
}

// Read is one storm read through client ci: path's locations from the
// router (billing the RPC and evaluating shard.kill), then VerifiedRead of
// [off, off+n) of its first block across the block's locations, failed
// seeing each failed one. A failed lookup returns a nil block and an attempt
// carrying the error, ReadTyped for a downed shard and ReadUntyped otherwise.
func (f *Federation) Read(p *sim.Proc, ci int, tr *trace.Trace, path string, off, n int64, want data.Slice,
	failed func(hdfs.BlockID, core.ReadAttempt)) (*hdfs.BlockInfo, core.ReadAttempt) {
	infos, err := f.Router.GetBlockLocations(p, f.Clients[ci].Kernel(), path)
	if err != nil {
		a := core.ReadAttempt{Outcome: core.ReadUntyped, Err: err}
		if errors.Is(err, hdfs.ErrShardDown) {
			a.Outcome = core.ReadTyped
		}
		return nil, a
	}
	blk := &infos[0]
	return blk, f.Libs[ci].VerifiedRead(p, tr, blk.Locations, blk.ID, off, n, want, failed)
}

// runScaleCell builds the federation and drives one storm at one QPS level.
func runScaleCell(opt Options, sc ScaleConfig, qps float64) ([]SLORow, error) {
	c := cluster.New(opt.Seed, cluster.Params{FreqHz: opt.FreqHz})
	defer opt.Stats.closeCluster(c)
	vcfg := opt.VReadConfig
	vcfg.Faults = faults.NewPlan(c.Env)
	clientNames := make([]string, sc.Clients)
	for j := range clientNames {
		clientNames[j] = fmt.Sprintf("c%d", j)
	}
	fed := BuildFederation(c, sc, opt.Seed, opt.BlockSize, vcfg, clientNames)

	tracer := trace.NewTracer(c.Env, 1)
	contents := make([]data.Pattern, sc.Files)
	paths := make([]string, sc.Files)

	killed := false
	var results []workload.OpResult
	var stormErr error
	done := false
	c.Go("scale-storm", func(p *sim.Proc) {
		defer func() { done = true }()
		// Quiet phase: write the dataset through the federation before any
		// faultpoint arms, so every later failure has known bytes to check.
		for i := range contents {
			contents[i] = data.Pattern{Seed: uint64(opt.Seed)*1000 + uint64(i), Size: sc.FileSize}
			paths[i] = fmt.Sprintf("/scale/f%d", i)
			if err := fed.Clients[0].WriteFile(p, paths[i], contents[i]); err != nil {
				stormErr = fmt.Errorf("write f%d: %w", i, err)
				return
			}
			if _, err := fed.Router.GetBlockLocations(p, fed.Clients[0].Kernel(), paths[i]); err != nil {
				stormErr = fmt.Errorf("locate f%d: %w", i, err)
				return
			}
		}
		for _, r := range opt.Faults {
			vcfg.Faults.Set(r)
		}

		results = workload.RunOpenLoop(p, c.Env, workload.OpenLoopConfig{
			QPS:      qps,
			Arrivals: sc.Reads,
		}, func(op *sim.Proc, i int) string {
			if sc.KillRack != "" && c.MaybeKillRack(sc.KillRack) {
				killed = true
			}
			phase := "steady"
			if killed {
				phase = "degraded"
			}
			return phase + "/" + scaleRead(op, fed, tracer, contents, paths, sc, i)
		})
	})
	if err := c.Env.RunUntil(c.Env.Now() + sc.Deadline); err != nil {
		return nil, fmt.Errorf("scale qps=%g: %w", qps, err)
	}
	if stormErr != nil {
		return nil, stormErr
	}
	if err := fed.Mgr.Drained(tracer, done); err != nil {
		return nil, fmt.Errorf("scale qps=%g: %w", qps, err)
	}

	cell := fmt.Sprintf("qps=%g", qps)
	var rows []SLORow
	for _, phase := range []string{"steady", "degraded"} {
		row := SLORow{Cell: cell, Phase: phase, QPS: qps}
		for _, r := range results {
			switch r.Label {
			case phase + "/ok":
				row.OKs++
			case phase + "/typed":
				row.TypedErrors++
			case phase + "/corrupt", phase + "/untyped":
				return nil, fmt.Errorf("scale qps=%g: invariant broken: %s outcome", qps, r.Label)
			default:
				continue
			}
			row.Arrivals++
		}
		if row.Arrivals == 0 {
			continue
		}
		slo := workload.SLOOf(results, phase+"/ok")
		row.P50us = slo.P50.Microseconds()
		row.P95us = slo.P95.Microseconds()
		row.P99us = slo.P99.Microseconds()
		row.MaxUs = slo.Max.Microseconds()
		rows = append(rows, row)
	}
	return rows, nil
}

// scaleRead performs one storm read: deterministic file/range choice from
// the arrival index, then the federation's read of that file's path
// through client i mod Clients. Outcomes: "ok" (correct bytes), "typed"
// (typed error / all replicas unavailable), "corrupt", "untyped" (both
// invariant violations).
func scaleRead(op *sim.Proc, fed *Federation, tracer *trace.Tracer, contents []data.Pattern, paths []string, sc ScaleConfig, i int) string {
	fileIdx := i % sc.Files
	off := int64(i*7919) % (sc.FileSize - 1)
	n := min(sc.FileSize-off, 64<<10)
	want := data.NewSlice(contents[fileIdx]).Sub(off, n)

	tr := tracer.Request(fmt.Sprintf("scale-read-%d", i))
	defer tr.Finish(n)
	_, a := fed.Read(op, i%sc.Clients, tr, paths[fileIdx], off, n, want, nil)
	switch a.Outcome {
	case core.ReadOK:
		return "ok"
	case core.ReadCorrupt:
		return "corrupt"
	case core.ReadUntyped:
		return "untyped"
	}
	return "typed" // a downed shard, or every replica failed typed or refused the open
}
