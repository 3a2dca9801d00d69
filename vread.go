// Package vread is a full functional reproduction, in pure Go, of
// "vRead: Efficient Data Access for Hadoop in Virtualized Clouds"
// (Xu, Saltaformaggio, Gamage, Kompella, Xu — ACM Middleware 2015).
//
// The paper's artifact is a modified KVM hypervisor; this library rebuilds
// the entire substrate as a deterministic discrete-event emulation — host
// CPUs under a CFS-like scheduler, virtio/vhost devices, guest kernels with
// page caches and sockets, disk-image file systems, a 10 Gbps RoCE LAN, and
// a functional HDFS — and implements vRead itself (libvread, the guest ring
// driver, and the per-VM hypervisor daemon) on top. Bytes really flow end to
// end; every copy, kick, interrupt and context switch charges a virtual
// clock, so the paper's figures and tables regenerate as emergent behavior.
//
// Two levels of API:
//
//   - experiment level: the Experiments registry (LookupExperiment by id)
//     runs and draws every figure and table of the paper's evaluation (see
//     cmd/vread-bench); NewTestbed builds the testbed they run on;
//   - deployment level: NewCluster / NewNameNode / StartDataNode /
//     NewVReadManager build virtual Hadoop clusters, over HDFS or QFS, with
//     or without vRead (see examples/).
//
// The substrate underneath — the simulation engine, CPU scheduler, device,
// storage and network models, the federated namespace — lives in internal/
// packages; the facade names only what those two levels use.
//
// Everything is deterministic: the same seed reproduces identical results
// to the nanosecond.
package vread

import (
	"vread/internal/cluster"
	"vread/internal/core"
	"vread/internal/experiments"
	"vread/internal/faults"
	"vread/internal/guest"
	"vread/internal/hdfs"
	"vread/internal/qfs"
	"vread/internal/sim"
	"vread/internal/trace"
	"vread/internal/workload"
)

// ---------------------------------------------------------------------------
// Simulation engine.

// Env is the discrete-event simulation environment.
type Env = sim.Env

// ---------------------------------------------------------------------------
// Cluster substrate.

// Cluster is a simulated testbed of hosts and VMs.
type Cluster = cluster.Cluster

// ClusterParams configures hosts and VMs: the CPU clock and the virtio
// alternatives.
type ClusterParams = cluster.Params

// NewCluster creates an empty cluster.
func NewCluster(seed int64, params ClusterParams) *Cluster {
	return cluster.New(seed, params)
}

// Kernel is a VM's guest operating system (sockets + files).
type Kernel = guest.Kernel

// ---------------------------------------------------------------------------
// HDFS.

// NameNode holds HDFS metadata.
type NameNode = hdfs.NameNode

// DataNode serves blocks from inside a VM.
type DataNode = hdfs.DataNode

// DFSClient is the HDFS client with the paper's read1/read2 paths.
type DFSClient = hdfs.Client

// HDFSConfig holds HDFS parameters.
type HDFSConfig = hdfs.Config

// NewNameNode creates a namenode over the cluster fabric.
func NewNameNode(env *Env, cfg HDFSConfig, topo hdfs.Topology) *NameNode {
	return hdfs.NewNameNode(env, cfg, topo)
}

// StartDataNode boots a datanode inside a VM kernel.
func StartDataNode(env *Env, nn *NameNode, kernel *Kernel) *DataNode {
	return hdfs.StartDataNode(env, nn, kernel)
}

// NewDFSClient creates a DFSClient inside a VM kernel.
func NewDFSClient(env *Env, nn *NameNode, kernel *Kernel) *DFSClient {
	return hdfs.NewClient(env, nn, kernel)
}

// ---------------------------------------------------------------------------
// vRead.

// VReadManager assembles vRead over a cluster: image mounts, per-host
// daemon servers, per-client rings and libvread instances.
type VReadManager = core.Manager

// VReadConfig holds the vRead parameters callers vary: ring geometry, the
// remote transport and window, the §6 direct-disk bypass, mount-table
// shards, ring revocation and fault injection. Model costs are constants of
// the core package.
type VReadConfig = core.Config

// VReadLib is libvread: the client-side library installed on a DFSClient.
type VReadLib = core.Lib

// Transport selects the daemon-to-daemon remote transport.
type Transport = core.Transport

// Remote daemon-to-daemon transports.
const (
	TransportRDMA = core.TransportRDMA
	TransportTCP  = core.TransportTCP
)

// ParseTransport parses "rdma" or "tcp".
var ParseTransport = core.ParseTransport

// NewVReadManager creates the vRead system over a cluster and namenode.
// Call MountDatanode for each datanode VM, EnableClient for each client VM,
// and install the returned library with DFSClient.SetBlockReader.
func NewVReadManager(c *Cluster, nn *NameNode, cfg VReadConfig) *VReadManager {
	if nn == nil {
		// An untyped nil avoids handing NewManager a non-nil Namespace
		// interface wrapping a nil *NameNode.
		return core.NewManager(c, nil, cfg)
	}
	return core.NewManager(c, nn, cfg)
}

// DaemonEntity returns the metrics entity that vRead hypervisor work on a
// host is charged to.
func DaemonEntity(host string) string { return core.DaemonEntity(host) }

// DaemonStats holds one vRead daemon's counters, derived from its event
// stream. Retrieve them with VReadManager.DaemonStats(vmName).
type DaemonStats = core.DaemonStats

// LibStats holds one libvread instance's counters. Retrieve them with
// VReadManager.LibStats(vmName).
type LibStats = core.LibStats

// ---------------------------------------------------------------------------
// Tracing: set Options.Traces to a TraceCollector and every layer of the
// read path records spans, events and CPU-cycle charges on sampled requests.

// TraceCollector accumulates finished traces.
type TraceCollector = trace.Collector

// Trace exporters and reducers.
var (
	// WriteChromeTrace writes traces as Chrome trace_event JSON
	// (chrome://tracing, Perfetto).
	WriteChromeTrace = trace.WriteChrome
	// TraceStages reduces traces to per-stage latency percentiles.
	TraceStages = trace.Stages
	// WriteTraceStagesCSV writes the per-stage statistics as CSV.
	WriteTraceStagesCSV = trace.WriteStagesCSV
)

// ---------------------------------------------------------------------------
// QFS (the §3 generalization: a second DFS served by the same vRead).

// QFSMetaServer tracks QFS file → chunk metadata.
type QFSMetaServer = qfs.MetaServer

// QFSChunkServer stores chunk files inside a VM.
type QFSChunkServer = qfs.ChunkServer

// QFSClient reads and writes chunk-striped files.
type QFSClient = qfs.Client

// QFSConfig holds QFS parameters.
type QFSConfig = qfs.Config

// NewQFSMetaServer creates a QFS metaserver.
func NewQFSMetaServer(env *Env, cfg QFSConfig) *QFSMetaServer {
	return qfs.NewMetaServer(env, cfg)
}

// StartQFSChunkServer boots a chunk server in a VM kernel.
func StartQFSChunkServer(env *Env, ms *QFSMetaServer, kernel *Kernel) *QFSChunkServer {
	return qfs.StartChunkServer(env, ms, kernel)
}

// NewQFSClient creates a QFS client in a VM kernel.
func NewQFSClient(env *Env, ms *QFSMetaServer, kernel *Kernel) *QFSClient {
	return qfs.NewClient(env, ms, kernel)
}

// QFSPathReader adapts a client VM's libvread into QFS's reader hook.
func QFSPathReader(lib *VReadLib) qfs.PathReader {
	return qfs.PathReaderFunc(func(p *sim.Proc, tr *trace.Trace, server, path, key string) (qfs.Handle, bool) {
		return lib.OpenPath(p, tr, server, path, key)
	})
}

// UseVReadWithQFS wires a client VM's libvread into a QFS client and
// subscribes the manager to the metaserver's refresh events. Call it once,
// before any QFS writes; toggle the shortcut afterwards with
// client.SetPathReader(QFSPathReader(lib)) / SetPathReader(nil).
func UseVReadWithQFS(mgr *VReadManager, ms *QFSMetaServer, client *QFSClient, lib *VReadLib) {
	ms.AddListener(mgr)
	client.SetPathReader(QFSPathReader(lib))
}

// ---------------------------------------------------------------------------
// Workloads.

// StartLookbusy runs an 85%-style CPU hog in a VM.
var StartLookbusy = workload.StartLookbusy

// ---------------------------------------------------------------------------
// Experiments: every figure and table of §5.

// Options configures one experiment testbed.
type Options = experiments.Options

// Testbed is a built instance of the paper's Figure 10 topology.
type Testbed = experiments.Testbed

// Scenario places replicas relative to the reader.
type Scenario = experiments.Scenario

// Scenarios of §5.2.
const (
	Colocated = experiments.Colocated
	Remote    = experiments.Remote
	Hybrid    = experiments.Hybrid
)

// NewTestbed builds the two-host testbed of Figure 10.
func NewTestbed(opt Options) *Testbed { return experiments.NewTestbed(opt) }

// ScenarioConfig holds a scenario's keys, as a JSON scenario file names them
// (see cmd/vread-sim -config) or a CLI fills them from its flags. Its Build
// range-checks every key and returns the Setup.
type ScenarioConfig = experiments.ScenarioConfig

// Setup is a built scenario: Options, a placement Scenario, and the
// ScaleConfig or MigrationConfig its "scale_out" or "migrate" block selects
// (nil when absent).
type Setup = experiments.Setup

// ParseOptions decodes a JSON scenario file into a ScenarioConfig and builds
// its Setup.
var ParseOptions = experiments.ParseOptions

// ScaleConfig describes a datacenter-scale scenario: a federated namespace
// over a multi-domain topology driven by an open-loop read storm, with an
// optional mid-storm rack kill.
type ScaleConfig = experiments.ScaleConfig

// SLORow is one p50/p95/p99 read-latency row of a scale run.
type SLORow = experiments.SLORow

// RunScale runs one federated scale cell per QPS level and returns SLO rows
// (byte-identical between serial and parallel runs).
var RunScale = experiments.RunScale

// RenderSLORows renders SLO rows one per line.
var RenderSLORows = experiments.RenderSLORows

// MigrationConfig describes the live-mount-migration blackout sweep: reader
// depths, the per-stream storm, and when the cutover fires.
type MigrationConfig = experiments.MigrationConfig

// MigrationRow is one depth's blackout measurement: quiesce window, captured
// in-flight descriptors, and worst read latency inside vs outside it.
type MigrationRow = experiments.MigrationRow

// RunMigrationSweep live-migrates a datanode's mount out from under
// concurrent reader streams, one cell per depth. Zero lost or corrupted reads
// is the contract; rows are byte-identical between serial and parallel runs.
var RunMigrationSweep = experiments.RunMigrationSweep

// MigrationTable draws migration sweep rows as a table: Text() is the
// aligned grid, CSV() the CSV form.
var MigrationTable = experiments.MigrationTable

// Experiment is one experiment of the paper's evaluation (or an ablation):
// its vread-bench -exp id, title, the paper's reported result, and Run.
// Render runs it and draws its rows as text or CSV.
type Experiment = experiments.Experiment

// Experiments returns every experiment, in vread-bench -exp all order.
var Experiments = experiments.Registry

// LookupExperiment returns the experiment with the given -exp id ("fig12"
// answers with fig11's entry: both figures come from the same runs).
var LookupExperiment = experiments.Lookup

// RunFig3 reproduces Figure 3 and returns its rows.
var RunFig3 = experiments.RunFig3

// Fig3Row is one Figure 3 measurement.
type Fig3Row = experiments.Fig3Row

// RunDFSIOPoint runs one TestDFSIO point of the Figure 11/12 grid.
var RunDFSIOPoint = experiments.RunDFSIOPoint

// ---------------------------------------------------------------------------
// Deterministic fault injection (DESIGN.md §9).

// ParseFaultSpec parses "point[:opt,...][;point...]" syntax, e.g.
// "disk.read.slow:p=0.2,delay=2ms;rdma.qp.teardown:after=100,max=1"; arm the
// result via Options.Faults.
var ParseFaultSpec = faults.ParseSpec
