package core

import (
	"fmt"
	"time"

	"vread/internal/cluster"
	"vread/internal/faults"
	"vread/internal/fsim"
	"vread/internal/hdfs"
	"vread/internal/metrics"
	"vread/internal/netsim"
	"vread/internal/sim"
	"vread/internal/trace"
)

// DaemonEntity returns the metrics entity name that all vRead hypervisor
// work on a host is charged to (the "vRead-daemon" bars of Figures 6–8).
func DaemonEntity(host string) string { return "vread-daemon@" + host }

// Manager assembles vRead over a cluster: per-host read-only mounts of every
// datanode image (the losetup/kpartx step), per-host daemon servers, per-
// client-VM daemons with their rings, and the namenode-driven dentry refresh
// (§3.2's synchronization).
type Manager struct {
	env *sim.Env
	cfg Config
	cl  *cluster.Cluster
	nn  hdfs.Namespace

	daemons     map[string]*Daemon // client VM → daemon
	clientOrder []string           // client VMs in EnableClient order (deterministic iteration)
	libs        map[string]*Lib
	servers     map[string]*hostServer // host → daemon server and its mount map
	qps         map[hostPair]*netsim.QP
	pending     map[int64]*sim.Queue[chunkMsg]
	reqs        sim.Pool[remoteReq] // request and chunk metas in flight between hosts
	chunks      sim.Pool[remoteChunk]
	nextReq     int64
	refreshes   int64
	// downgraded maps a host-pair key to the virtual instant its RDMA→TCP
	// downgrade expires. Recovery is lazy — checked on the next send rather
	// than by timer — so an idle downgrade leaves no pending event behind
	// (the chaos harness asserts Env.Pending drains to zero).
	downgraded map[hostPair]time.Duration
	downgrades int64
}

// NewManager creates the vRead system. It installs a daemon server on every
// existing host and subscribes to namespace block events (nn may be nil for
// non-HDFS deployments — call BlockAdded/BlockRemoved from the other file
// system's metadata server instead); call MountDatanode for each datanode
// VM and EnableClient for each client VM. nn may be a standalone NameNode
// or a federated Router — the manager only consumes block events.
func NewManager(cl *cluster.Cluster, nn hdfs.Namespace, cfg Config) *Manager {
	m := &Manager{
		env:        cl.Env,
		cfg:        cfg.WithDefaults(),
		cl:         cl,
		nn:         nn,
		daemons:    make(map[string]*Daemon),
		libs:       make(map[string]*Lib),
		servers:    make(map[string]*hostServer),
		qps:        make(map[hostPair]*netsim.QP),
		pending:    make(map[int64]*sim.Queue[chunkMsg]),
		downgraded: make(map[hostPair]time.Duration),
	}
	if nn != nil {
		nn.AddBlockListener(m)
	}
	return m
}

func (m *Manager) fabric() *netsim.Fabric { return m.cl.Fabric }

// ensureServer installs the per-host daemon server (idempotent).
func (m *Manager) ensureServer(h *cluster.Host) *hostServer {
	if s, ok := m.servers[h.Name]; ok {
		return s
	}
	s := newHostServer(m, h)
	m.servers[h.Name] = s
	// The TCP port is bound even under RDMA: it is the fallback path an
	// injected QP teardown downgrades onto (§3.4's "TCP when RoCE is
	// unavailable").
	m.fabric().BindHostPort(h.Name, VReadPort, m.onTCPFrame(h.Name))
	return s
}

// MountDatanode mounts a datanode VM's disk image read-only on its host and
// records it in the datanode-ID → mount hash.
func (m *Manager) MountDatanode(vmName string) {
	vm := m.cl.VM(vmName)
	if vm == nil {
		panic(fmt.Sprintf("core: unknown VM %q", vmName))
	}
	s := m.ensureServer(vm.Host)
	if s.mounts[vmName] == nil {
		s.mounts[vmName] = fsim.MountRO(vm.FS)
	}
}

// UnmountDatanode removes a datanode's mount from a host (migration).
func (m *Manager) UnmountDatanode(host, vmName string) {
	delete(m.hostMounts(host), vmName)
}

// hostMounts returns a host's datanode-ID → mount map; it is nil, and so
// empty, on a host without a vRead server.
func (m *Manager) hostMounts(host string) map[string]*fsim.HostMount {
	if s := m.servers[host]; s != nil {
		return s.mounts
	}
	return nil
}

// mount resolves the mount table entry for (host, datanode).
func (m *Manager) mount(host, dn string) *fsim.HostMount { return m.hostMounts(host)[dn] }

// EnableClient creates the client VM's ring, daemon and libvread, returning
// the BlockReader to install on its DFSClient.
func (m *Manager) EnableClient(vmName string) *Lib {
	if lib, ok := m.libs[vmName]; ok {
		return lib
	}
	vm := m.cl.VM(vmName)
	if vm == nil {
		panic(fmt.Sprintf("core: unknown VM %q", vmName))
	}
	m.ensureServer(vm.Host)
	d := newDaemon(m, vm)
	m.daemons[vmName] = d
	m.clientOrder = append(m.clientOrder, vmName)
	lib := newLib(m, vm, d)
	m.libs[vmName] = lib
	return lib
}

// InjectGuestFaults arms a per-VM fault plan on one client's ring endpoints —
// libvread's descriptor forging and its daemon's serving path — so a hostile-
// guest storm targets a single ring while every other VM keeps the manager-
// wide plan. This is the isolation test lever: the harness arms the hostile
// points on one VM and asserts its neighbours' reads stay clean.
func (m *Manager) InjectGuestFaults(vmName string, plan *faults.Plan) {
	if d := m.daemons[vmName]; d != nil {
		d.InjectFaults(plan)
	}
	if l := m.libs[vmName]; l != nil {
		l.faults = plan
	}
}

// Daemon returns a client VM's daemon (nil if not enabled).
func (m *Manager) Daemon(vmName string) *Daemon { return m.daemons[vmName] }

// DaemonStats returns the daemon counters for a client VM, derived from the
// daemon's event stream. The zero value is returned when vRead is not
// enabled for the VM.
func (m *Manager) DaemonStats(vmName string) DaemonStats {
	if d := m.daemons[vmName]; d != nil {
		return d.Stats()
	}
	return DaemonStats{}
}

// LibStats returns the libvread counters for a client VM (zero value when
// vRead is not enabled there).
func (m *Manager) LibStats(vmName string) LibStats {
	if l := m.libs[vmName]; l != nil {
		return l.Stats()
	}
	return LibStats{}
}

// Refreshes returns the number of dentry refresh operations triggered by
// namenode block events (fig13's write-path overhead).
func (m *Manager) Refreshes() int64 { return m.refreshes }

// ---------------------------------------------------------------------------
// hdfs.BlockEventListener: the namenode-driven mount synchronization.

// BlockAdded refreshes the new block's dentry on the datanode's host. The
// refresh runs asynchronously on the host's daemon thread — an open racing
// ahead of it simply falls back to the vanilla path, exactly like the
// prototype.
func (m *Manager) BlockAdded(dn string, blockPath string) {
	m.enqueueRefresh(dn, blockPath)
}

// BlockRemoved drops the block's dentry.
func (m *Manager) BlockRemoved(dn string, blockPath string) {
	m.enqueueRefresh(dn, blockPath)
}

// refreshOp is one queued dentry refresh.
type refreshOp struct {
	mount *fsim.HostMount
	path  string
}

// enqueueRefresh queues one dentry refresh on the datanode's host, batched
// per host: the first op of a burst posts the server-thread task, later ops
// ride the same wakeup. Every op pays refreshCycles — the batching removes
// scheduling round trips, not modeled work.
func (m *Manager) enqueueRefresh(dn string, blockPath string) {
	host, ok := m.fabric().HostOf(dn)
	if !ok {
		return
	}
	mount := m.mount(host, dn)
	if mount == nil {
		return
	}
	m.refreshes++
	s := m.servers[host]
	s.pending = append(s.pending, refreshOp{mount: mount, path: blockPath})
	if s.scheduled {
		return
	}
	s.scheduled = true
	s.thread.Post(refreshCycles, metrics.TagOthers, s.drainRefreshes)
}

// drainRefreshes runs the host's queued refresh batch. The scheduling Post
// charged the first op's cycles; a batch of K ops charges the remaining
// (K-1)·refreshCycles in one more slice on the same thread before the
// refreshes apply — same total cycles as unbatched, one wakeup.
func (s *hostServer) drainRefreshes() {
	ops := s.pending
	s.pending = nil
	s.scheduled = false
	run := func() {
		for _, op := range ops {
			op.mount.RefreshPath(op.path)
		}
	}
	if extra := int64(len(ops)-1) * refreshCycles; extra > 0 {
		s.thread.Post(extra, metrics.TagOthers, run)
		return
	}
	run()
}

// DatanodeMigrated updates the mount hash after a datanode VM live-migrates
// (§6): unmount on the old host, remount on the new one. The fabric
// registration itself is the cluster's job.
func (m *Manager) DatanodeMigrated(vmName, oldHost string) {
	m.UnmountDatanode(oldHost, vmName)
	m.MountDatanode(vmName)
}

// ---------------------------------------------------------------------------
// Degradation state: RDMA→TCP downgrade and crash recovery.

// transportTo picks the transport for a send between two hosts, honouring an
// active downgrade. An expired downgrade is cleared here — the next send
// probes RDMA again over a fresh QP (the broken one was dropped when the
// failure was noted).
func (m *Manager) transportTo(a, b string) Transport {
	if m.cfg.Transport != TransportRDMA || len(m.downgraded) == 0 {
		return m.cfg.Transport
	}
	key := qpKey(a, b)
	until, ok := m.downgraded[key]
	if !ok {
		return TransportRDMA
	}
	if m.env.Now() >= until {
		delete(m.downgraded, key)
		return TransportRDMA
	}
	return TransportTCP
}

// noteRemoteFailure records a failed remote exchange between two hosts.
// Under RDMA it discards the (presumed broken) QP and downgrades the pair to
// TCP for downgradeWindow; the downgrade transition marks tr, exactly once.
func (m *Manager) noteRemoteFailure(tr *trace.Trace, a, b string) {
	if m.cfg.Transport != TransportRDMA {
		return
	}
	key := qpKey(a, b)
	if qp, ok := m.qps[key]; ok {
		qp.Close()
		delete(m.qps, key)
	}
	_, already := m.downgraded[key]
	m.downgraded[key] = m.env.Now() + downgradeWindow
	if !already {
		m.downgrades++
		tr.Event(trace.LayerDaemon, "transport-downgrade", 0)
	}
}

// Downgrades returns how many RDMA→TCP downgrade transitions have occurred.
func (m *Manager) Downgrades() int64 { return m.downgrades }

// PendingRemoteReads returns the number of outstanding remote requests — the
// chaos harness asserts it drains to zero (no leaked sim.Queue readers).
func (m *Manager) PendingRemoteReads() int { return len(m.pending) }

// invalidateMounts empties every mount's dentry cache on a host — the
// metadata a daemon crash loses. Reads and opens on the host miss (vanilla
// fallback) until vRead_update refreshes paths or ResyncHost remounts.
// Visit order does not matter: each mount's change is its own.
func (m *Manager) invalidateMounts(host string) {
	for _, mnt := range m.hostMounts(host) {
		mnt.Invalidate()
	}
}

// ResyncHost re-snapshots every mount on a host — the full remount a
// restarted daemon performs to recover from invalidated metadata.
// Visit order does not matter, as in invalidateMounts.
func (m *Manager) ResyncHost(host string) {
	for _, mnt := range m.hostMounts(host) {
		mnt.RefreshAll()
	}
}
