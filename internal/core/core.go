// Package core implements vRead, the paper's contribution: a hypervisor-
// level shortcut that lets HDFS client VMs read block files directly from
// datanode VMs' disk images.
//
// The three components of §3 map onto:
//
//   - lib.go — libvread, the user-level library (Table 1's API plus the
//     block-name → descriptor hash) exposed to HDFS through the
//     hdfs.BlockReader hook (the re-implemented read1/read2 call it);
//   - ring.go — the guest↔daemon shared-memory channel: a POSIX-SHM ring of
//     1024 × 4 KiB slots surfaced as a virtual PCI device, with per-slot
//     spinlocks and eventfd doorbells translated to virtual interrupts;
//   - daemon.go / remote.go — the per-VM hypervisor daemon: the datanode-ID →
//     mount-point hash over read-only loop mounts of datanode images, host-
//     page-cache-backed local reads, dentry refresh on namenode block events,
//     and daemon-to-daemon remote reads over RDMA (RoCE) or TCP.
//
// manager.go assembles all of it over a cluster and implements the
// BlockEventListener trigger (§3.2's namenode-driven synchronization) and
// datanode VM migration support (§6).
package core

import (
	"fmt"
	"time"

	"vread/internal/faults"
)

// Transport selects the daemon-to-daemon remote transport.
type Transport int

// Remote transports.
const (
	// TransportRDMA uses RoCE verbs: near-zero CPU, data DMA'd straight
	// into the requesting host's ring memory (the paper's preferred mode).
	TransportRDMA Transport = iota
	// TransportTCP uses a user-level TCP exchange between daemons — works
	// everywhere but burns more CPU than vhost-net (Figure 8's finding).
	TransportTCP
)

func (t Transport) String() string {
	if t == TransportTCP {
		return "tcp"
	}
	return "rdma"
}

// ParseTransport parses a transport name as String prints it.
func ParseTransport(s string) (Transport, error) {
	switch s {
	case "rdma":
		return TransportRDMA, nil
	case "tcp":
		return TransportTCP, nil
	}
	return TransportRDMA, fmt.Errorf("%w %q (want rdma or tcp)", ErrBadTransport, s)
}

// vRead's model costs and timeouts, the paper's prototype values.
const (
	// slotLockCycles is the pthread spinlock cost per slot access (paid on
	// both sides).
	slotLockCycles = 120
	// eventFdCycles is one doorbell (eventfd write + wakeup).
	eventFdCycles = 2500
	// guestIRQCycles is the guest-side virtual interrupt (driver
	// translation of the eventfd).
	guestIRQCycles = 2500
	// libCallCycles is the guest-side cost of one libvread call (JNI + hash
	// lookup).
	libCallCycles = 800
	// openCycles is daemon-side vRead_open processing.
	openCycles = 6000
	// loopReadCyclesPerKB is the daemon's cost of reading the mounted image
	// through the host FS (loop device + page cache copy into the ring).
	loopReadCyclesPerKB = 700
	// diskSubmitCycles is per host disk I/O submission.
	diskSubmitCycles = 6000
	// remoteChunkBytes is the RDMA write / TCP segment unit.
	remoteChunkBytes = 64 << 10
	// tcpSegCycles is per-segment user-level TCP cost on each daemon
	// (syscall + user/kernel crossing; deliberately above vhost-net's
	// per-frame cost, matching §5.1's finding).
	tcpSegCycles = 9000
	// addrTranslateCycles is the per-request triple address translation
	// cost when bypassing the host FS.
	addrTranslateCycles = 4500
	// refreshCycles is the daemon-side cost of one dentry/inode refresh
	// (vRead_update).
	refreshCycles = 5000
	// guestCopyCyclesPerKB is the guest-side cost of copying ring slots
	// into the application buffer through JNI (libvread is C, HDFS is
	// Java, so every slot crosses the JNI boundary).
	guestCopyCyclesPerKB = 1600
	// openTimeout bounds how long vRead_open waits before falling back to
	// the vanilla path.
	openTimeout = 50 * time.Millisecond
	// hostReadaheadBytes is the host file system's sequential readahead
	// window over loop-mounted images.
	hostReadaheadBytes = 1 << 20
	// remoteReadTimeout bounds how long the daemon waits for the next chunk
	// of a remote window before abandoning the transfer and retrying (the
	// detection latency of a torn QP or dropped segment).
	remoteReadTimeout = 25 * time.Millisecond
	// maxReadRetries bounds retries at both degradation layers: libvread
	// re-issuing a failed ring read and the daemon re-requesting a failed
	// remote window.
	maxReadRetries = 3
	// retryBackoff is libvread's base retry delay, doubled per attempt.
	retryBackoff = 500 * time.Microsecond
	// downgradeWindow is how long a host pair stays on the TCP fallback
	// after an RDMA failure before probing RDMA again over a fresh QP.
	downgradeWindow = 250 * time.Millisecond
	// doorbellWatchdog is the guest driver's poll interval that bounds the
	// latency of a lost doorbell.
	doorbellWatchdog = time.Millisecond
	// daemonRestartDelay is how long a crashed daemon takes to come back.
	daemonRestartDelay = 5 * time.Millisecond
	// migrateRemountDelay is the image re-attach cost during a live mount
	// migration (losetup/kpartx + FS snapshot on the target host), charged
	// between the source unmount and the target mount.
	migrateRemountDelay = 3 * time.Millisecond
	// slotHeldSpinCycles is the daemon CPU burned per ring.slotheld firing:
	// a guest holding a slot spinlock makes the daemon spin, not sleep.
	slotHeldSpinCycles = 20000
	// doorbellStormBurst is how many junk no-reply descriptors one
	// ring.doorbellstorm firing floods the descriptor area with.
	doorbellStormBurst = 4
)

// Config holds the vRead parameters callers vary. Zero values select the
// paper's prototype defaults.
type Config struct {
	// RingSlots is the number of ring buffer slots. Default 1024.
	RingSlots int
	// SlotBytes is the slot size. Default 4096.
	SlotBytes int64
	// EventBatchSlots is how many slots ride one doorbell. Default 32.
	EventBatchSlots int
	// RemoteWindowBytes bounds in-flight remote data per request. Default 1 MiB.
	RemoteWindowBytes int64
	// Transport selects the remote path. Default RDMA.
	Transport Transport
	// DirectDiskBypass enables §6's alternative: read the image via the
	// raw device, skipping the host FS — no page cache benefit and extra
	// per-request address translation.
	DirectDiskBypass bool
	// RingRevokeThreshold revokes a client VM's ring after this many
	// consecutive rejected descriptors (malformed or stale-keyed) — the
	// SIVSHM-style isolation response to a misbehaving peer. 0 disables
	// revocation (the default): every rejection is answered typed and the
	// ring stays attached.
	RingRevokeThreshold int
	// Faults is the fault-injection plan evaluated at the core faultpoints
	// (disk.read.error, disk.read.torn, ring.doorbell.lost, ring.stall,
	// ring.slotheld, daemon.crash, mount.migrate, and — on the guest side —
	// ring.badslot, ring.doorbellstorm, ring.stalekey). Nil disables
	// injection. Manager.InjectGuestFaults overrides it per client VM.
	Faults *faults.Plan
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.RingSlots == 0 {
		c.RingSlots = 1024
	}
	if c.SlotBytes == 0 {
		c.SlotBytes = 4096
	}
	if c.EventBatchSlots == 0 {
		c.EventBatchSlots = 32
	}
	if c.RemoteWindowBytes == 0 {
		c.RemoteWindowBytes = 1 << 20
	}
	return c
}

func loopReadCycles(n int64) int64  { return n * loopReadCyclesPerKB / 1024 }
func guestCopyCycles(n int64) int64 { return n * guestCopyCyclesPerKB / 1024 }
