// Package hdfs implements the Hadoop distributed file system of the paper's
// testbed (Hadoop 1.2.1 era): a namenode holding file→block metadata,
// datanode servers that store blocks as regular files in their VM's file
// system and stream them over TCP, and a DFSClient with the two read paths
// the paper re-implements (read1 sequential, read2 positional) plus the
// write pipeline.
//
// The vRead integration point is the BlockReader hook: when installed (by
// internal/core), DFSClient reads go through vRead descriptors, falling back
// to the original socket path exactly as Algorithms 1 and 2 prescribe.
package hdfs

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"vread/internal/guest"
	"vread/internal/metrics"
	"vread/internal/sim"
	"vread/internal/trace"
)

// Errors returned by HDFS operations.
var (
	ErrNotFound   = errors.New("hdfs: file not found")
	ErrExists     = errors.New("hdfs: file already exists")
	ErrIncomplete = errors.New("hdfs: file not complete")
	ErrNoDatanode = errors.New("hdfs: no datanode available")
	// ErrReplication refuses a block whose replication factor exceeds the
	// registered datanodes, instead of writing fewer replicas than asked.
	ErrReplication = errors.New("hdfs: replication exceeds the registered datanodes")
)

// DataPort is the datanode streaming port (Hadoop's 50010).
const DataPort = 50010

// Hadoop-1.2-era HDFS costs.
const (
	// packetBytes is the streaming packet size.
	packetBytes = 64 << 10
	// checksumCyclesPerKB models CRC32 generation/verification per side
	// (~1.5 cycles/byte in the era's Java CRC32).
	checksumCyclesPerKB = 1500
	// streamCyclesPerKB is the client-side DFSInputStream/BlockReader Java
	// processing per received KB (buffer chains, packet reassembly).
	streamCyclesPerKB = 3600
	// dnStreamCyclesPerKB is the datanode-side BlockSender Java processing
	// per sent KB.
	dnStreamCyclesPerKB = 1200
	// packetClientCycles is per-packet client processing (header parse,
	// bookkeeping).
	packetClientCycles = 20000
	// packetDNCycles is per-packet datanode processing.
	packetDNCycles = 15000
	// requestCycles is per-read-request datanode processing (DataXceiver
	// setup).
	requestCycles = 15000
	// rpcLatency is a namenode RPC round trip.
	rpcLatency = 250 * time.Microsecond
	// rpcCycles is client-side RPC processing.
	rpcCycles = 10000
)

// Config holds HDFS parameters. Zero values select Hadoop-1.2-era defaults.
type Config struct {
	// BlockSize is the HDFS block size. Default 64 MiB.
	BlockSize int64
	// Replication is the write pipeline depth. Default 1 (the paper's
	// experiments place one replica per scenario).
	Replication int
	// ShortCircuit enables HDFS-2246/347 short-circuit local reads when the
	// client runs in the same VM as the datanode (§2.2 comparison).
	ShortCircuit bool
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.BlockSize == 0 {
		c.BlockSize = 64 << 20
	}
	if c.Replication == 0 {
		c.Replication = 1
	}
	return c
}

func checksumCycles(n int64) int64 { return n * checksumCyclesPerKB / 1024 }

// clientRecvCycles is the full client-side cost of receiving n streamed
// bytes: checksum verify + stream processing + per-packet overheads.
func clientRecvCycles(n int64) int64 {
	packets := (n + packetBytes - 1) / packetBytes
	return checksumCycles(n) + n*streamCyclesPerKB/1024 + packets*packetClientCycles
}

// dnSendCycles is the datanode-side per-packet cost beyond raw copies.
func dnSendCycles(n int64) int64 {
	return checksumCycles(n) + n*dnStreamCyclesPerKB/1024 + packetDNCycles
}

// BlockID identifies one HDFS block.
type BlockID int64

// BlockName renders the on-disk file name of a block.
func (id BlockID) BlockName() string { return "blk_" + strconv.FormatInt(int64(id), 10) }

// BlockInfo is the namenode's record of one block.
type BlockInfo struct {
	ID         BlockID
	Size       int64
	FileOffset int64
	Locations  []string // datanode VM names, preferred order
}

// BlockName returns the block's file name.
func (b BlockInfo) BlockName() string { return b.ID.BlockName() }

// Topology resolves VM placement (implemented by netsim.Fabric).
type Topology interface {
	HostOf(vm string) (string, bool)
}

// DomainTopology extends Topology with the failure topology: which rack and
// fault domain a host sits in. netsim.Fabric implements it; placement layers
// that receive a plain Topology fall back to domain-blind behavior.
type DomainTopology interface {
	Topology
	RackOf(host string) (string, bool)
	DomainOf(host string) (string, bool)
}

// PlacementPolicy picks datanodes for a new block's replicas. key identifies
// the block being placed ("<path>#<index>") so consistent-hash policies can
// spread a file's blocks around the ring; topology-only policies ignore it.
type PlacementPolicy func(clientVM, key string, replication int) []string

// Namespace is the metadata plane a client, datanode, or vRead manager binds
// to: a single NameNode or a federated Router of namespace shards. The
// unexported methods keep implementations inside this package — federation
// is a property of the metadata service, not something callers compose.
type Namespace interface {
	Config() Config
	DataNodes() []string
	SetPlacementPolicy(p PlacementPolicy)
	AddBlockListener(l BlockEventListener)
	GetBlockLocations(p *sim.Proc, k *guest.Kernel, path string) ([]BlockInfo, error)
	CreateFile(p *sim.Proc, k *guest.Kernel, path string) error
	AllocateBlock(p *sim.Proc, k *guest.Kernel, path string) (BlockInfo, error)
	CompleteFile(p *sim.Proc, k *guest.Kernel, path string) error
	DeleteFile(p *sim.Proc, k *guest.Kernel, path string) error
	FileSize(path string) (int64, bool)

	getBlockLocations(p *sim.Proc, k *guest.Kernel, tr *trace.Trace, path string) ([]BlockInfo, error)
	registerDataNode(dn *DataNode)
	blockReceived(dn string, id BlockID, size int64)
}

// BlockEventListener observes block lifecycle on a datanode — the namenode-
// driven trigger that vRead uses to refresh daemon mount points (§3.2).
type BlockEventListener interface {
	// BlockAdded fires when dn has completed writing the named block file.
	BlockAdded(dn string, blockPath string)
	// BlockRemoved fires when dn deletes the block file.
	BlockRemoved(dn string, blockPath string)
}

// NameNode holds all file metadata. RPCs to it are modeled as a fixed
// latency plus client cycles (the paper leaves client↔namenode logic
// untouched, and metadata traffic is not on the measured path).
type NameNode struct {
	env       *sim.Env
	cfg       Config
	topo      Topology
	files     map[string]*fileMeta
	datanodes map[string]*DataNode
	dnOrder   []string
	nextBlock BlockID // allocation count, not the ID itself
	// blockBase/blockStride stripe block IDs across federation shards:
	// shard i of S allocates i+1, i+1+S, i+1+2S, … so IDs stay cluster-
	// unique without shard coordination. A standalone namenode has
	// base 0, stride 1 (IDs 1, 2, 3, … as before).
	blockBase   int64
	blockStride int64
	placement   PlacementPolicy
	listeners   []BlockEventListener
	rrNext      int
}

type fileMeta struct {
	name     string
	blocks   []BlockInfo
	complete bool
}

// NewNameNode creates a standalone namenode (a federation of one).
func NewNameNode(env *sim.Env, cfg Config, topo Topology) *NameNode {
	return newShard(env, cfg, topo, 0, 1)
}

// newShard creates one namespace shard with a block-ID stripe.
func newShard(env *sim.Env, cfg Config, topo Topology, base, stride int64) *NameNode {
	nn := &NameNode{
		env:         env,
		cfg:         cfg.WithDefaults(),
		topo:        topo,
		files:       make(map[string]*fileMeta),
		datanodes:   make(map[string]*DataNode),
		blockBase:   base,
		blockStride: stride,
	}
	nn.placement = nn.defaultPlacement
	return nn
}

// Config returns the cluster configuration.
func (nn *NameNode) Config() Config { return nn.cfg }

// SetPlacementPolicy overrides replica placement (experiments use this to
// force co-located / remote / hybrid reads).
func (nn *NameNode) SetPlacementPolicy(p PlacementPolicy) { nn.placement = p }

// AddBlockListener registers a block lifecycle observer.
func (nn *NameNode) AddBlockListener(l BlockEventListener) {
	nn.listeners = append(nn.listeners, l)
}

// registerDataNode is called by StartDataNode.
func (nn *NameNode) registerDataNode(dn *DataNode) {
	if _, ok := nn.datanodes[dn.Name()]; ok {
		panic(fmt.Sprintf("hdfs: duplicate datanode %q", dn.Name()))
	}
	nn.datanodes[dn.Name()] = dn
	nn.dnOrder = append(nn.dnOrder, dn.Name())
}

// DataNodes returns the registered datanode names in registration order.
func (nn *NameNode) DataNodes() []string { return append([]string(nil), nn.dnOrder...) }

// defaultPlacement prefers a datanode co-located with the client (HVE-style
// topology awareness), then round-robins the rest. It ignores the block key.
func (nn *NameNode) defaultPlacement(clientVM, _ string, replication int) []string {
	clientHost, _ := nn.topo.HostOf(clientVM)
	var local, remote []string
	for _, name := range nn.dnOrder {
		h, _ := nn.topo.HostOf(name)
		if h == clientHost {
			local = append(local, name)
		} else {
			remote = append(remote, name)
		}
	}
	ordered := append(local, remote...)
	if len(ordered) == 0 {
		return nil
	}
	if replication > len(ordered) {
		replication = len(ordered)
	}
	// Rotate the non-local tail for balance across blocks.
	nn.rrNext++
	return append([]string(nil), ordered[:replication]...)
}

// orderLocations sorts replicas for a reader: same-VM first (short-circuit),
// then same-host, then remote. Replicas already in that order are returned
// as stored, not copied; readers never write a BlockInfo's Locations.
func (nn *NameNode) orderLocations(clientVM string, locs []string) []string {
	if len(locs) == 0 {
		return nil
	}
	clientHost, _ := nn.topo.HostOf(clientVM)
	rank := func(l string) int {
		if l == clientVM {
			return 0
		}
		if h, _ := nn.topo.HostOf(l); h == clientHost {
			return 1
		}
		return 2
	}
	if slices.IsSortedFunc(locs, func(a, b string) int { return rank(a) - rank(b) }) {
		return locs
	}
	out := make([]string, 0, len(locs))
	for r := 0; r <= 2; r++ {
		for _, l := range locs {
			if rank(l) == r {
				out = append(out, l)
			}
		}
	}
	return out
}

// rpc charges one namenode round trip to the calling client, attributed to
// the request trace tr (nil when untraced).
func (nn *NameNode) rpc(p *sim.Proc, k *guest.Kernel, tr *trace.Trace) {
	sp := tr.Begin(trace.LayerClient, "namenode-rpc")
	k.VCPU().RunT(p, rpcCycles, metrics.TagOthers, tr)
	p.Sleep(rpcLatency)
	tr.EndSpan(sp, 0)
}

// GetBlockLocations returns the block list of a complete file, replica
// lists ordered for this client.
func (nn *NameNode) GetBlockLocations(p *sim.Proc, k *guest.Kernel, path string) ([]BlockInfo, error) {
	return nn.getBlockLocations(p, k, nil, path)
}

func (nn *NameNode) getBlockLocations(p *sim.Proc, k *guest.Kernel, tr *trace.Trace, path string) ([]BlockInfo, error) {
	nn.rpc(p, k, tr)
	meta, ok := nn.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if !meta.complete {
		return nil, fmt.Errorf("%w: %s", ErrIncomplete, path)
	}
	out := make([]BlockInfo, len(meta.blocks))
	for i, b := range meta.blocks {
		b.Locations = nn.orderLocations(k.Name(), b.Locations)
		out[i] = b
	}
	return out, nil
}

// CreateFile registers a new, incomplete file.
func (nn *NameNode) CreateFile(p *sim.Proc, k *guest.Kernel, path string) error {
	nn.rpc(p, k, nil)
	if _, ok := nn.files[path]; ok {
		return fmt.Errorf("%w: %s", ErrExists, path)
	}
	nn.files[path] = &fileMeta{name: path}
	return nil
}

// AllocateBlock assigns the next block of an open file to datanodes.
func (nn *NameNode) AllocateBlock(p *sim.Proc, k *guest.Kernel, path string) (BlockInfo, error) {
	nn.rpc(p, k, nil)
	meta, ok := nn.files[path]
	if !ok {
		return BlockInfo{}, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if nn.cfg.Replication > len(nn.dnOrder) {
		return BlockInfo{}, fmt.Errorf("%w: %d replicas, %d datanodes", ErrReplication, nn.cfg.Replication, len(nn.dnOrder))
	}
	targets := nn.placement(k.Name(), fmt.Sprintf("%s#%d", path, len(meta.blocks)), nn.cfg.Replication)
	if len(targets) == 0 {
		return BlockInfo{}, ErrNoDatanode
	}
	nn.nextBlock++
	id := BlockID(nn.blockBase + 1 + (int64(nn.nextBlock)-1)*nn.blockStride)
	var off int64
	for _, b := range meta.blocks {
		off += b.Size
	}
	info := BlockInfo{ID: id, FileOffset: off, Locations: targets}
	meta.blocks = append(meta.blocks, info)
	return info, nil
}

// blockReceived records a completed replica and fires the vRead refresh
// trigger. Called by datanodes (not billed to the client).
func (nn *NameNode) blockReceived(dn string, id BlockID, size int64) {
	for _, meta := range nn.files {
		for i := range meta.blocks {
			if meta.blocks[i].ID == id {
				meta.blocks[i].Size = size
			}
		}
	}
	path := blockPath(id)
	for _, l := range nn.listeners {
		l.BlockAdded(dn, path)
	}
}

// CompleteFile marks a file complete (readable).
func (nn *NameNode) CompleteFile(p *sim.Proc, k *guest.Kernel, path string) error {
	nn.rpc(p, k, nil)
	meta, ok := nn.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	meta.complete = true
	return nil
}

// DeleteFile removes a file's metadata and its block files on datanodes.
func (nn *NameNode) DeleteFile(p *sim.Proc, k *guest.Kernel, path string) error {
	nn.rpc(p, k, nil)
	meta, ok := nn.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(nn.files, path)
	for _, b := range meta.blocks {
		for _, loc := range b.Locations {
			if dn := nn.datanodes[loc]; dn != nil {
				dn.removeBlock(p, b.ID)
				for _, l := range nn.listeners {
					l.BlockRemoved(loc, blockPath(b.ID))
				}
			}
		}
	}
	return nil
}

// FileSize returns the total length of a file.
func (nn *NameNode) FileSize(path string) (int64, bool) {
	meta, ok := nn.files[path]
	if !ok {
		return 0, false
	}
	var n int64
	for _, b := range meta.blocks {
		n += b.Size
	}
	return n, true
}

// DataDir is where datanodes keep block files inside their VM.
const DataDir = "/hadoop/dfs/data"

// blockPath returns a block's file path inside the datanode VM.
func blockPath(id BlockID) string { return DataDir + "/" + id.BlockName() }

// BlockPath is the exported form used by the vRead daemon.
func BlockPath(id BlockID) string { return blockPath(id) }

// BlockPathByName returns the path for a block file name ("blk_7").
func BlockPathByName(name string) string { return DataDir + "/" + name }
