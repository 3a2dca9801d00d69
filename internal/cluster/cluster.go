// Package cluster assembles the simulated testbed: hosts (CPU, disk, host
// page cache, NIC) and VMs (vCPU + vhost threads, virtio devices, guest page
// cache, disk-image file system, guest kernel), wired to the shared LAN
// fabric — the machinery of the paper's Figure 10 setups.
package cluster

import (
	"fmt"
	"time"

	"vread/internal/cpusched"
	"vread/internal/faults"
	"vread/internal/fsim"
	"vread/internal/guest"
	"vread/internal/metrics"
	"vread/internal/netsim"
	"vread/internal/sim"
	"vread/internal/sim/shard"
	"vread/internal/storage"
	"vread/internal/virtio"
)

// The paper's testbed hardware: quad-core hosts with 16 GB RAM and 2 GB VMs.
const (
	// cores per host.
	cores = 4
	// hostCacheBytes is the host page cache serving loop-mounted image
	// reads: 12 GiB (16 GB host minus VMs and host overhead is generous;
	// the daemon competes with nothing else for it).
	hostCacheBytes = 12 << 30
	// guestCacheBytes is each VM's page cache: 1.5 GiB (2 GB VM).
	guestCacheBytes = 3 << 29
	// cacheChunkBytes is simulation cache granularity.
	cacheChunkBytes = 64 << 10
)

// Params collects the testbed settings experiments vary. Zero values
// reproduce the paper's testbed: quad-core hosts, 16 GB RAM, SSD, 10 Gbps
// RoCE LAN, 2 GB VMs, KVM with vhost-net on and vhost-blk off.
type Params struct {
	// FreqHz is the host clock. Default 2.0 GHz (the paper sweeps
	// 1.6/2.0/3.2 via cpufreq-set).
	FreqHz int64

	Virtio virtio.Config
}

// WithDefaults fills zero fields.
func (p Params) WithDefaults() Params {
	if p.FreqHz == 0 {
		p.FreqHz = 2_000_000_000
	}
	return p
}

// Cluster is the whole simulated testbed.
//
// A cluster is either single-env (New: one Env shared by every host and VM,
// the classic serial regime) or sharded (NewSharded: one Env, metrics
// registry, and shard.LP per host, advanced in parallel under conservative
// lookahead). In the sharded regime Env and Reg are nil — all state is per
// host, and frames between hosts cross LPs through the fabric's
// interconnect (LP.Send). A sharded cluster carries hosts only: the VM
// stack is single-env, and AddVM panics on a sharded cluster.
type Cluster struct {
	Env     *sim.Env
	Reg     *metrics.Registry
	Fabric  *netsim.Fabric
	Network *guest.Network
	Params  Params
	// Coord drives the epoch loop of a sharded cluster; nil otherwise.
	Coord *shard.Coordinator

	seed      int64
	sharded   bool
	hosts     map[string]*Host
	hostOrder []*Host // insertion order: deterministic iteration + dense IDs
	racks     map[string][]*Host
	rackOrder []string
	vms       map[string]*VM
	nextID    int64
	faults    *faults.Plan
}

// Host is one physical machine.
type Host struct {
	Name string
	// ID is a dense cluster-unique index assigned at AddHost time: the
	// Nth host added gets ID N-1. Allocation is O(1) off a counter and
	// collision-checked against the name map, so thousand-host topologies
	// construct without quadratic scans or silent ID reuse.
	ID int
	// Rack and Domain place the host in the failure topology: hosts in a
	// rack share a ToR switch (a rack kill takes them all out); racks in
	// a fault domain share power/cooling (WAS-style fault domains).
	Rack    string
	Domain  string
	Cluster *Cluster
	// Env is the event loop this host's devices and daemons run on: the
	// cluster Env in the single-env regime, the host's own in the sharded
	// one.
	Env *sim.Env
	// Reg receives this host's metrics. Shared cluster-wide in the
	// single-env regime, per host when sharded (concurrent shards must not
	// write one registry).
	Reg *metrics.Registry
	// LP is the host's logical process in a sharded cluster; nil otherwise.
	LP      *shard.LP
	CPU     *cpusched.CPU
	Disk    *storage.Disk
	Cache   *storage.PageCache // host page cache (loop-mount reads)
	NIC     *netsim.NIC
	Softirq *cpusched.Thread
	VMs     []*VM
	down    bool
}

// VM is one virtual machine.
type VM struct {
	Name    string
	Host    *Host
	ImageID int64 // namespaces this VM's inodes in the host page cache
	VCPU    *cpusched.Thread
	Vhost   *cpusched.Thread
	IOTh    *cpusched.Thread
	NetDev  *virtio.NetDev
	BlkDev  *virtio.BlkDev
	Cache   *storage.PageCache // guest page cache
	FS      *fsim.FS           // file system inside the disk image
	Kernel  *guest.Kernel
}

// New creates an empty cluster.
func New(seed int64, params Params) *Cluster {
	params = params.WithDefaults()
	env := sim.NewEnv(seed)
	reg := metrics.NewRegistry()
	return &Cluster{
		Env:     env,
		Reg:     reg,
		Fabric:  netsim.NewFabric(env, netsim.Config{}),
		Network: guest.NewNetwork(),
		Params:  params,
		seed:    seed,
	}
}

// NewSharded creates an empty sharded cluster: every host added gets its own
// Env (seeded deterministically from the cluster seed and the host ID), its
// own metrics registry, and an LP registered with the coordinator. The
// fabric's interconnect is wired to the coordinator's mailboxes, with the
// fabric's minimum link latency as the lookahead window. shards is the
// worker count K; the run is byte-identical for every K by construction.
// It carries hosts only: Network is nil and AddVM panics.
func NewSharded(seed int64, params Params, shards int) *Cluster {
	params = params.WithDefaults()
	c := &Cluster{
		Fabric:  netsim.NewFabric(nil, netsim.Config{}),
		Params:  params,
		Coord:   shard.New(shard.Config{Shards: shards, Lookahead: netsim.Config{}.Lookahead()}),
		seed:    seed,
		sharded: true,
	}
	c.Fabric.SetInterconnect(func(src, dst string, delay time.Duration, deliver func()) {
		c.hosts[src].LP.Send(c.hosts[dst].LP, delay, deliver)
	})
	return c
}

// Sharded reports whether the cluster runs one Env per host.
func (c *Cluster) Sharded() bool { return c.sharded }

// AddHost creates a host with its CPU, SSD, page cache and NIC in the
// default rack/domain ("r0"/"d0").
func (c *Cluster) AddHost(name string) *Host {
	return c.AddHostAt(name, "r0", "d0")
}

// AddHostAt creates a host in the given rack and fault domain.
func (c *Cluster) AddHostAt(name, rack, domain string) *Host {
	if c.hosts == nil {
		c.hosts = make(map[string]*Host)
		c.racks = make(map[string][]*Host)
	}
	if _, ok := c.hosts[name]; ok {
		panic(fmt.Sprintf("cluster: duplicate host %q", name))
	}
	id := len(c.hostOrder)
	env, reg := c.Env, c.Reg
	if c.sharded {
		// Per-host seed: a fixed odd multiplier spreads host IDs across the
		// seed space; any deterministic injection works, this one keeps
		// host N's stream stable as hosts are added.
		env = sim.NewEnv(c.seed*1_000_003 + int64(id) + 1)
		reg = metrics.NewRegistry()
	}
	cpu := cpusched.New(env, reg, cores, c.Params.FreqHz, cpusched.Config{})
	h := &Host{
		Name:    name,
		ID:      id,
		Rack:    rack,
		Domain:  domain,
		Cluster: c,
		Env:     env,
		Reg:     reg,
		CPU:     cpu,
		Disk:    storage.NewDisk(env, name+":ssd", storage.DiskConfig{}),
		Cache:   storage.NewPageCache(name+":pagecache", hostCacheBytes, cacheChunkBytes),
		Softirq: cpu.NewThread(name+":softirq", name),
	}
	h.Disk.InjectFaults(c.faults)
	if c.sharded {
		h.LP = c.Coord.AddLP(env)
		h.NIC = c.Fabric.AddHostOn(name, h.Softirq, env)
	} else {
		h.NIC = c.Fabric.AddHost(name, h.Softirq)
	}
	c.Fabric.SetHostLocation(name, rack, domain)
	c.hosts[name] = h
	c.hostOrder = append(c.hostOrder, h)
	if _, ok := c.racks[rack]; !ok {
		c.rackOrder = append(c.rackOrder, rack)
	}
	c.racks[rack] = append(c.racks[rack], h)
	return h
}

// TopologySpec describes a regular datacenter fabric: Domains fault domains,
// each holding RacksPerDomain racks of HostsPerRack hosts. Host names are
// "d<i>r<j>h<k>", rack names "d<i>r<j>", domain names "d<i>".
type TopologySpec struct {
	Domains        int
	RacksPerDomain int
	HostsPerRack   int
}

// Hosts returns the total host count the spec describes.
func (t TopologySpec) Hosts() int { return t.Domains * t.RacksPerDomain * t.HostsPerRack }

// BuildTopology adds every host in the spec in deterministic order (domain-
// major, then rack, then host) and returns them in that order.
func (c *Cluster) BuildTopology(spec TopologySpec) []*Host {
	hosts := make([]*Host, 0, spec.Hosts())
	for d := 0; d < spec.Domains; d++ {
		for r := 0; r < spec.RacksPerDomain; r++ {
			rack := fmt.Sprintf("d%dr%d", d, r)
			for h := 0; h < spec.HostsPerRack; h++ {
				hosts = append(hosts, c.AddHostAt(fmt.Sprintf("%sh%d", rack, h), rack, fmt.Sprintf("d%d", d)))
			}
		}
	}
	return hosts
}

// AssignRackShards pins every host's LP to a shard by rack: racks are
// divided into contiguous blocks, one block per shard, so hosts that share a
// ToR switch — the cluster's densest communication neighborhood — land on
// the same worker and their frames cross the mailbox no more often than the
// topology requires. Call after the topology is built, before the run. A
// no-op on single-env clusters.
func (c *Cluster) AssignRackShards() {
	if !c.sharded {
		return
	}
	k := c.Coord.Shards()
	nracks := len(c.rackOrder)
	if nracks == 0 {
		return
	}
	for ri, rack := range c.rackOrder {
		s := ri * k / nracks
		for _, h := range c.racks[rack] {
			h.LP.SetShard(s)
		}
	}
}

// Host returns a host by name, or nil.
func (c *Cluster) Host(name string) *Host { return c.hosts[name] }

// Hosts returns every host in insertion (ID) order. Callers must not mutate
// the slice.
func (c *Cluster) Hosts() []*Host { return c.hostOrder }

// Racks returns every rack name in first-host-added order.
func (c *Cluster) Racks() []string { return c.rackOrder }

// RackHosts returns the hosts of one rack in insertion order.
func (c *Cluster) RackHosts(rack string) []*Host { return c.racks[rack] }

// Down reports whether the host has been killed (rack kill or explicit).
func (h *Host) Down() bool { return h.down }

// InjectFaults arms a fault plan on the whole testbed: the cluster itself
// (rack.kill), the fabric, and the disk of every host, hosts added later
// included.
func (c *Cluster) InjectFaults(plan *faults.Plan) {
	c.faults = plan
	c.Fabric.InjectFaults(plan)
	for _, h := range c.hostOrder {
		h.Disk.InjectFaults(plan)
	}
}

// KillRack takes a whole rack dark: every host in it stops exchanging
// frames (the ToR died). In-flight frames to or from the rack are dropped
// at the fabric; readers see timeouts and fail over to replicas in other
// racks. The hosts' processes keep running — they are partitioned, not
// descheduled — which is exactly the gray-failure shape that stresses the
// timeout/degradation machinery.
func (c *Cluster) KillRack(rack string) {
	for _, h := range c.racks[rack] {
		h.down = true
		c.Fabric.SetHostDown(h.Name)
	}
}

// MaybeKillRack evaluates the rack.kill faultpoint and, when it fires,
// kills the named rack. Load generators call this per arrival so a chaos
// spec like "rack.kill:after=40,max=1" pins the kill to an exact point in
// the storm.
func (c *Cluster) MaybeKillRack(rack string) bool {
	if !c.faults.Should(faults.RackKill) {
		return false
	}
	c.KillRack(rack)
	return true
}

// VM returns a VM by name, or nil.
func (c *Cluster) VM(name string) *VM { return c.vms[name] }

// VMs returns the registry of all VMs.
func (c *Cluster) AllVMs() map[string]*VM { return c.vms }

// AddVM creates a 1-vCPU / 2 GB VM on the host. appTag is the metrics tag
// for application-attributed cycles (metrics.TagClientApp or
// metrics.TagDatanodeApp). The VM stack is single-env: AddVM panics on a
// sharded cluster.
func (h *Host) AddVM(name, appTag string) *VM {
	c := h.Cluster
	if c.sharded {
		panic(fmt.Sprintf("cluster: AddVM(%q) on a sharded cluster; VMs are single-env only", name))
	}
	if c.vms == nil {
		c.vms = make(map[string]*VM)
	}
	if _, ok := c.vms[name]; ok {
		panic(fmt.Sprintf("cluster: duplicate VM %q", name))
	}
	c.nextID++
	vm := &VM{
		Name:    name,
		Host:    h,
		ImageID: c.nextID,
		VCPU:    h.CPU.NewThread(name+":vcpu", name),
		Vhost:   h.CPU.NewThread(name+":vhost", name),
		IOTh:    h.CPU.NewThread(name+":iothread", name),
		Cache:   storage.NewPageCache(name+":guestcache", guestCacheBytes, cacheChunkBytes),
		FS:      fsim.New(name + ":image"),
	}
	vm.NetDev = virtio.NewNetDev(h.Env, c.Params.Virtio, name, h.Name, vm.VCPU, vm.Vhost, h.NIC, c.Fabric)
	vm.BlkDev = virtio.NewBlkDev(h.Env, name, vm.VCPU, vm.IOTh, h.Disk)
	vm.Kernel = guest.NewKernel(h.Env, guest.KernelParams{
		Name:    name,
		AppTag:  appTag,
		VCPU:    vm.VCPU,
		NetDev:  vm.NetDev,
		BlkDev:  vm.BlkDev,
		Cache:   vm.Cache,
		FS:      vm.FS,
		Network: c.Network,
	})
	vm.NetDev.Start()
	vm.BlkDev.Start()
	h.VMs = append(h.VMs, vm)
	c.vms[name] = vm
	return vm
}

// HostCacheObject namespaces a VM-image inode into the host page cache's
// object space (what the host caches when the daemon reads the image).
func (vm *VM) HostCacheObject(ino fsim.Ino) int64 {
	return vm.ImageID<<32 | int64(ino)
}

// MigrateVM live-migrates a VM to another host (§6 of the paper): new
// vCPU/vhost/iothread threads on the destination CPU, fresh virtio devices,
// and a fabric re-registration. The disk image travels logically (the
// paper's centralized NFS/iSCSI storage); the guest page cache moves with
// the VM's memory. The VM must be quiesced (no in-flight I/O).
func (c *Cluster) MigrateVM(vmName string, dst *Host) {
	vm := c.vms[vmName]
	if vm == nil {
		panic(fmt.Sprintf("cluster: unknown VM %q", vmName))
	}
	if vm.Host == dst {
		return
	}
	src := vm.Host
	vm.NetDev.Stop()
	vm.BlkDev.Stop()
	c.Fabric.UnregisterVM(vmName)

	vm.Host = dst
	vm.VCPU = dst.CPU.NewThread(vmName+":vcpu", vmName)
	vm.Vhost = dst.CPU.NewThread(vmName+":vhost", vmName)
	vm.IOTh = dst.CPU.NewThread(vmName+":iothread", vmName)
	vm.NetDev = virtio.NewNetDev(dst.Env, c.Params.Virtio, vmName, dst.Name, vm.VCPU, vm.Vhost, dst.NIC, c.Fabric)
	vm.BlkDev = virtio.NewBlkDev(dst.Env, vmName, vm.VCPU, vm.IOTh, dst.Disk)
	vm.Kernel.Migrate(vm.VCPU, vm.NetDev, vm.BlkDev)
	vm.NetDev.Start()
	vm.BlkDev.Start()

	for i, v := range src.VMs {
		if v == vm {
			src.VMs = append(src.VMs[:i], src.VMs[i+1:]...)
			break
		}
	}
	dst.VMs = append(dst.VMs, vm)
}

// Go starts a simulated process (convenience passthrough). Single-env only;
// sharded clusters start processes on a specific host via Host.Go.
func (c *Cluster) Go(name string, fn func(p *sim.Proc)) *sim.Proc {
	return c.Env.Go(name, fn)
}

// Go starts a simulated process on this host's Env.
func (h *Host) Go(name string, fn func(p *sim.Proc)) *sim.Proc {
	return h.Env.Go(name, fn)
}

// RunUntil advances a sharded cluster through every event with timestamp
// <= t, leaving all host clocks at exactly t.
func (c *Cluster) RunUntil(t time.Duration) error {
	if !c.sharded {
		return c.Env.RunUntil(t)
	}
	return c.Coord.RunUntil(t)
}

// Close shuts the cluster's devices and aborts residual processes.
func (c *Cluster) Close() {
	for _, vm := range c.vms {
		vm.NetDev.Stop()
		vm.BlkDev.Stop()
	}
	if c.sharded {
		for _, h := range c.hostOrder {
			h.Env.Close()
		}
		return
	}
	c.Env.Close()
}
