// Federated namespace: a Router fronts N namespace shards (HDFS federation,
// each path routed by a seeded hash) and replaces topology-round-robin
// placement with a consistent-hash ring over the datanodes (Dynamo-style
// virtual nodes, replication factor N) that spreads replicas across fault
// domains (WAS-style storage stamps/racks).
//
// Determinism: the ring is built from an explicit seed, entries are kept
// fully sorted with total-order tie-breaks, and routing hashes contain no
// map iteration — two same-seed constructions are identical and every
// placement decision replays exactly.
package hdfs

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"vread/internal/faults"
	"vread/internal/guest"
	"vread/internal/sim"
	"vread/internal/trace"
)

// ErrShardDown is returned for namespace RPCs routed to a shard that a
// shard.kill fault has taken down and whose failover has not completed yet.
var ErrShardDown = errors.New("hdfs: namespace shard down (failover in progress)")

// failoverDelay is how long a killed shard refuses RPCs before its standby
// takes over (lazy recovery: the window simply expires).
const failoverDelay = 5 * time.Millisecond

// fnv1a is the ring/routing hash: FNV-1a 64, seed-mixed by hashing the seed
// bytes before the key bytes, then finalized with a murmur-style mixer. The
// finalizer matters: raw FNV-1a barely propagates trailing bytes into the
// high bits, so ring positions compared on the full 64-bit value would
// cluster keys that share a prefix (and starve some nodes entirely).
func fnv1a(seed int64, s string) uint64 {
	const offset = 14695981039346656037
	const prime = 1099511628211
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(seed >> (8 * i)))
		h *= prime
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ---------------------------------------------------------------------------
// Consistent-hash ring.

// DefaultVNodes is the virtual-node count per ring member.
const DefaultVNodes = 64

type ringEntry struct {
	hash uint64
	node string
	vidx int
}

// Ring is a deterministic consistent-hash ring with virtual nodes and
// fault-domain-aware replica selection.
type Ring struct {
	seed    int64
	vnodes  int
	entries []ringEntry // sorted by (hash, node, vidx)
	domains map[string]string
	order   []string // node insertion order (reporting only)
}

// NewRing creates an empty ring. vnodes <= 0 selects DefaultVNodes.
func NewRing(seed int64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{seed: seed, vnodes: vnodes, domains: make(map[string]string)}
}

// compare orders entries by (hash, node, vidx), a total order: node names
// are unique and a node's vnode indexes distinct.
func (a ringEntry) compare(b ringEntry) int {
	if c := cmp.Compare(a.hash, b.hash); c != 0 {
		return c
	}
	if c := strings.Compare(a.node, b.node); c != 0 {
		return c
	}
	return cmp.Compare(a.vidx, b.vidx)
}

// AddNode inserts a node with its fault domain (empty = domain-blind). Only
// the node's own vnodes are sorted; they are merged into the sorted entries
// from the back, so the ring is the one sorting every entry would give.
func (r *Ring) AddNode(node, domain string) {
	if _, ok := r.domains[node]; ok {
		panic(fmt.Sprintf("hdfs: ring node %q already present", node))
	}
	r.domains[node] = domain
	r.order = append(r.order, node)
	add := make([]ringEntry, r.vnodes)
	for v := range add {
		add[v] = ringEntry{hash: fnv1a(r.seed, node+"#"+strconv.Itoa(v)), node: node, vidx: v}
	}
	slices.SortFunc(add, ringEntry.compare)
	i, j := len(r.entries)-1, len(add)-1
	r.entries = append(r.entries, add...)
	for k := len(r.entries) - 1; j >= 0; k-- {
		if i >= 0 && r.entries[i].compare(add[j]) > 0 {
			r.entries[k] = r.entries[i]
			i--
		} else {
			r.entries[k] = add[j]
			j--
		}
	}
}

// KeyPos returns the ring position a key hashes to.
func (r *Ring) KeyPos(key string) uint64 { return fnv1a(r.seed, key) }

// successor returns the index of the first entry at or after pos (wrapping).
func (r *Ring) successor(pos uint64) int {
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].hash >= pos })
	if i == len(r.entries) {
		i = 0
	}
	return i
}

// Place returns up to n distinct nodes for a key: the successor walk first
// takes at most one node per fault domain (inter-domain durability — a rack
// or domain loss leaves live replicas), then, when domains are exhausted,
// fills with remaining distinct nodes (intra-domain redundancy).
func (r *Ring) Place(key string, n int) []string {
	if n <= 0 || len(r.entries) == 0 {
		return nil
	}
	start := r.successor(r.KeyPos(key))
	out := make([]string, 0, n)
	used := make(map[string]bool, n)
	usedDom := make(map[string]bool, n)
	for i := 0; i < len(r.entries) && len(out) < n; i++ {
		e := r.entries[(start+i)%len(r.entries)]
		if used[e.node] || usedDom[r.domains[e.node]] {
			continue
		}
		used[e.node] = true
		usedDom[r.domains[e.node]] = true
		out = append(out, e.node)
	}
	for i := 0; i < len(r.entries) && len(out) < n; i++ {
		e := r.entries[(start+i)%len(r.entries)]
		if used[e.node] {
			continue
		}
		used[e.node] = true
		out = append(out, e.node)
	}
	return out
}

// ---------------------------------------------------------------------------
// Federation router.

// RouterOptions tunes a federation.
type RouterOptions struct {
	// Shards is the namespace shard count. Default 1.
	Shards int
	// RingSeed seeds the consistent-hash ring (and path routing).
	RingSeed int64
	// VNodes per ring member. Default DefaultVNodes.
	VNodes int
}

// Router is the federated Namespace: a seeded hash routes each path to one
// of its shards, block IDs are striped so they stay cluster-unique, and a
// shared consistent-hash ring places replicas across fault domains.
type Router struct {
	env       *sim.Env
	cfg       Config
	topo      Topology
	shards    []*NameNode
	ring      *Ring
	seed      int64
	faults    *faults.Plan
	deadUntil []time.Duration
	routed    int64
	kills     int64
}

// NewRouter creates a federation of namespace shards over one topology.
func NewRouter(env *sim.Env, cfg Config, topo Topology, opt RouterOptions) *Router {
	if opt.Shards <= 0 {
		opt.Shards = 1
	}
	ro := &Router{
		env:       env,
		cfg:       cfg.WithDefaults(),
		topo:      topo,
		ring:      NewRing(opt.RingSeed, opt.VNodes),
		seed:      opt.RingSeed,
		deadUntil: make([]time.Duration, opt.Shards),
	}
	for i := 0; i < opt.Shards; i++ {
		sh := newShard(env, ro.cfg, topo, int64(i), int64(opt.Shards))
		sh.placement = ro.ringPlace
		ro.shards = append(ro.shards, sh)
	}
	return ro
}

// InjectFaults arms the shard.kill faultpoint, evaluated once per routed
// namespace RPC against the shard it routes to.
func (ro *Router) InjectFaults(plan *faults.Plan) { ro.faults = plan }

// NumShards returns the shard count.
func (ro *Router) NumShards() int { return len(ro.shards) }

// Routed returns how many namespace RPCs were routed.
func (ro *Router) Routed() int64 { return ro.routed }

// ShardKills returns how many shard.kill faults have fired.
func (ro *Router) ShardKills() int64 { return ro.kills }

// ShardOf returns the shard index a path routes to.
func (ro *Router) ShardOf(path string) int {
	return int(fnv1a(ro.seed, path) % uint64(len(ro.shards)))
}

// shardOfBlock inverts the block-ID stripe.
func (ro *Router) shardOfBlock(id BlockID) int {
	return int((int64(id) - 1) % int64(len(ro.shards)))
}

// checkShard evaluates shard.kill for one routed RPC and reports whether the
// target shard is serving. A firing takes the shard down until failover
// elapses; RPCs meanwhile still pay the round trip (the client burned a
// timeout learning the answer) and fail with ErrShardDown.
func (ro *Router) checkShard(p *sim.Proc, k *guest.Kernel, tr *trace.Trace, idx int) error {
	ro.routed++
	if ro.faults.Should(faults.ShardKill) {
		ro.kills++
		until := ro.env.Now() + failoverDelay
		if until > ro.deadUntil[idx] {
			ro.deadUntil[idx] = until
		}
	}
	if ro.env.Now() < ro.deadUntil[idx] {
		ro.shards[idx].rpc(p, k, tr)
		return fmt.Errorf("%w: shard %d", ErrShardDown, idx)
	}
	return nil
}

// domainOfVM maps a VM to its host's fault domain ("" when unknown).
func (ro *Router) domainOfVM(vm string) string {
	host, ok := ro.topo.HostOf(vm)
	if !ok {
		return ""
	}
	dt, ok := ro.topo.(DomainTopology)
	if !ok {
		return ""
	}
	d, _ := dt.DomainOf(host)
	return d
}

// ringPlace is the federation placement policy: the ring picks replication
// distinct datanodes spread across fault domains, then the writer-domain
// replica (if the ring offered one) is promoted to pipeline head — the
// intra-domain synchronous copy lands close, the inter-domain copies carry
// the durability.
func (ro *Router) ringPlace(clientVM, key string, replication int) []string {
	nodes := ro.ring.Place(key, replication)
	cd := ro.domainOfVM(clientVM)
	if cd != "" {
		for i, n := range nodes {
			if ro.domainOfVM(n) == cd {
				nodes[0], nodes[i] = nodes[i], nodes[0]
				break
			}
		}
	}
	return nodes
}

// Placement describes where one block of a path lives — the hdfs-cli
// `placement` view.
type Placement struct {
	Block   BlockID
	Shard   int
	RingPos uint64 // ring position of the block's placement key
	// Replicas in location order, each "dn@host rack=<r> domain=<d>".
	Replicas []string
}

// PlacementOf reports shard, ring position, and replica fault domains for
// every block of a path. Output order is deterministic: blocks in file
// order, replicas in stored location order.
func (ro *Router) PlacementOf(path string) ([]Placement, error) {
	idx := ro.ShardOf(path)
	meta, ok := ro.shards[idx].files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	dt, _ := ro.topo.(DomainTopology)
	out := make([]Placement, 0, len(meta.blocks))
	for i, b := range meta.blocks {
		pl := Placement{
			Block:   b.ID,
			Shard:   idx,
			RingPos: ro.ring.KeyPos(fmt.Sprintf("%s#%d", path, i)),
		}
		for _, loc := range b.Locations {
			host, _ := ro.topo.HostOf(loc)
			rack, domain := "", ""
			if dt != nil {
				rack, _ = dt.RackOf(host)
				domain, _ = dt.DomainOf(host)
			}
			pl.Replicas = append(pl.Replicas, fmt.Sprintf("%s@%s rack=%s domain=%s", loc, host, rack, domain))
		}
		out = append(out, pl)
	}
	return out, nil
}

// --- Namespace implementation ---------------------------------------------

// Config returns the cluster configuration.
func (ro *Router) Config() Config { return ro.cfg }

// DataNodes returns registered datanode names in registration order (every
// shard sees every datanode, so shard 0 speaks for the federation).
func (ro *Router) DataNodes() []string { return ro.shards[0].DataNodes() }

// SetPlacementPolicy overrides ring placement on every shard (tests use it
// to force degenerate layouts).
func (ro *Router) SetPlacementPolicy(p PlacementPolicy) {
	for _, sh := range ro.shards {
		sh.placement = p
	}
}

// AddBlockListener subscribes to block events on every shard.
func (ro *Router) AddBlockListener(l BlockEventListener) {
	for _, sh := range ro.shards {
		sh.AddBlockListener(l)
	}
}

// registerDataNode registers the datanode with every shard (any shard may
// route a delete to it) and joins it to the placement ring under its host's
// fault domain.
func (ro *Router) registerDataNode(dn *DataNode) {
	for _, sh := range ro.shards {
		sh.registerDataNode(dn)
	}
	ro.ring.AddNode(dn.Name(), ro.domainOfVM(dn.Name()))
}

// blockReceived routes a replica-completed report to the owning shard.
func (ro *Router) blockReceived(dn string, id BlockID, size int64) {
	ro.shards[ro.shardOfBlock(id)].blockReceived(dn, id, size)
}

// GetBlockLocations routes to the owning shard.
func (ro *Router) GetBlockLocations(p *sim.Proc, k *guest.Kernel, path string) ([]BlockInfo, error) {
	return ro.getBlockLocations(p, k, nil, path)
}

func (ro *Router) getBlockLocations(p *sim.Proc, k *guest.Kernel, tr *trace.Trace, path string) ([]BlockInfo, error) {
	idx := ro.ShardOf(path)
	if err := ro.checkShard(p, k, tr, idx); err != nil {
		return nil, err
	}
	return ro.shards[idx].getBlockLocations(p, k, tr, path)
}

// CreateFile routes to the owning shard.
func (ro *Router) CreateFile(p *sim.Proc, k *guest.Kernel, path string) error {
	idx := ro.ShardOf(path)
	if err := ro.checkShard(p, k, nil, idx); err != nil {
		return err
	}
	return ro.shards[idx].CreateFile(p, k, path)
}

// AllocateBlock routes to the owning shard.
func (ro *Router) AllocateBlock(p *sim.Proc, k *guest.Kernel, path string) (BlockInfo, error) {
	idx := ro.ShardOf(path)
	if err := ro.checkShard(p, k, nil, idx); err != nil {
		return BlockInfo{}, err
	}
	return ro.shards[idx].AllocateBlock(p, k, path)
}

// CompleteFile routes to the owning shard.
func (ro *Router) CompleteFile(p *sim.Proc, k *guest.Kernel, path string) error {
	idx := ro.ShardOf(path)
	if err := ro.checkShard(p, k, nil, idx); err != nil {
		return err
	}
	return ro.shards[idx].CompleteFile(p, k, path)
}

// DeleteFile routes to the owning shard.
func (ro *Router) DeleteFile(p *sim.Proc, k *guest.Kernel, path string) error {
	idx := ro.ShardOf(path)
	if err := ro.checkShard(p, k, nil, idx); err != nil {
		return err
	}
	return ro.shards[idx].DeleteFile(p, k, path)
}

// FileSize peeks the owning shard (pure metadata, no RPC billed).
func (ro *Router) FileSize(path string) (int64, bool) {
	return ro.shards[ro.ShardOf(path)].FileSize(path)
}
