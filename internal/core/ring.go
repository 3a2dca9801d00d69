package core

import (
	"vread/internal/data"
	"vread/internal/sim"
	"vread/internal/trace"
)

// ringState is a ring's permission state. The ring is the trust boundary
// between a guest and the hypervisor daemon, and — SIVSHM-style — each peer's
// segment carries its own state so one misbehaving VM never degrades
// another's channel.
type ringState int

const (
	// ringAttached is the normal serving state.
	ringAttached ringState = iota
	// ringQuiesced holds the channel for a snapshot: the daemon captures
	// popped descriptors into the pending set instead of serving them, and
	// guests block on their replies until a restore replays the set.
	ringQuiesced
	// ringRevoked is the isolation terminal state: every descriptor is
	// rejected with a revocation error until the VM is torn down.
	ringRevoked
)

func (s ringState) String() string {
	switch s {
	case ringQuiesced:
		return "quiesced"
	case ringRevoked:
		return "revoked"
	default:
		return "attached"
	}
}

// mintRingKey derives a VM's ring key for one epoch (FNV-1a over the VM name
// and the epoch). Keys are deterministic — (seed, plan) replay depends on it —
// and never zero, so an unstamped descriptor can never pass the check.
func mintRingKey(vm string, epoch int64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(vm); i++ {
		h ^= uint64(vm[i])
		h *= 1099511628211
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(epoch>>(8*i)) & 0xff
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}

// ring is the guest↔daemon shared-memory channel (§3.3): a POSIX SHM object
// surfaced to the guest as a virtual PCI device and divided into fixed-size
// slots. Requests travel guest→daemon through a small descriptor area;
// response data travels daemon→guest through the slots. Doorbells
// (eventfds) are modeled by the queues' wakeup semantics, with their CPU
// cost charged explicitly by the two sides.
//
// Requests are serialized per ring (the prototype's HDFS input streams read
// one range at a time), enforced by reqMu.
//
// Isolation state: the ring belongs to one VM and carries a per-epoch key
// minted at attach time. Every descriptor must be stamped with the current
// key — the daemon checks it on every doorbell — and the key rotates on every
// RingRestore, so descriptors captured across a quiesce are re-admitted
// explicitly rather than replaying by accident.
type ring struct {
	cfg   Config
	reqMu sim.Mutex
	// reqs is the descriptor area. Every field of a popped ringReq was
	// written by guest code on the far side of the SHM boundary and is
	// hostile until Daemon.sanitizeReq accepts it.
	//
	//lint:source guesttaint(descriptor area is guest-writable shared memory)
	reqs *sim.Queue[ringReq]
	// free counts the slot tokens the daemon may fill; freed wakes a daemon
	// waiting for one.
	free  int64
	freed sim.Signal
	// full carries filled slot runs in order. A data item holds the tokens
	// of slotsFor(its length) slots, all SlotBytes long but the last; an
	// error item holds one. The tokens bound the ring: every queued item
	// holds at least one, so the queue itself is unbounded.
	full *sim.Queue[ringSlot]

	vm    string // owning client VM
	epoch int64  // key epoch; bumped by every restore
	key   uint64 // current ring key (mintRingKey(vm, epoch))
	state ringState
	// pending is the replayable set of descriptors captured while quiesced:
	// drained from the descriptor area at snapshot time plus any that arrive
	// during the blackout. RingRestore re-stamps and replays them in order.
	//
	//lint:source guesttaint(captured descriptors stay guest-written until replay runs them through sanitizeReq)
	pending []ringReq
	// replay is the pending set a restore handed the daemon, still to be
	// served in order.
	//
	//lint:source guesttaint(replayed descriptors stay guest-written until the replay step sanitizes each one)
	replay []ringReq
	// badStreak counts consecutive rejected descriptors toward the
	// revocation threshold; any accepted descriptor resets it.
	badStreak int
}

type ringReqKind int

const (
	reqOpen ringReqKind = iota
	reqRead
	// reqResume is the daemon-internal restore kick: RingRestore pushes one
	// after rotating the key, and the daemon replays the pending set when it
	// pops it. A guest forging the kind fails the key-or-state guard and the
	// descriptor is dropped like a corrupt doorbell write.
	reqResume
)

// ringReq is one descriptor written by libvread. tr is the request trace the
// descriptor belongs to (nil when untraced); the daemon charges its work to
// it. key must match the ring's current epoch key or the daemon rejects the
// descriptor unserved.
type ringReq struct {
	kind  ringReqKind
	dn    string // datanode ID
	path  string // block file path
	off   int64
	n     int64
	key   uint64
	reply *sim.Queue[openResult] // open only
	tr    *trace.Trace
}

type openResult struct {
	ok   bool
	size int64
}

// slotCode classifies a response slot, so libvread can map daemon-side
// rejections to distinct typed errors.
type slotCode int

const (
	slotOK      slotCode = iota
	slotFailed           // stream failed (ErrDaemonFailed); guest aborts the read
	slotBadKey           // descriptor carried a stale ring key (ErrStaleKey)
	slotRevoked          // ring permission revoked (ErrRingRevoked)
	// slotClosed never crosses the ring: the guest's drain reports it when
	// the ring closes under a read (ErrRingClosed).
	slotClosed
)

// ringSlot is a run of consecutive filled data slots, or one error slot. A
// fill that runs out of tokens midway arrives as several items, each a
// contiguous Sub window of one Slice, which the guest's data.Builder joins
// back. last marks the read's final slot. It is written host-to-guest, like
// the slot data, so no descriptor sanitizer sees it.
type ringSlot struct {
	s    data.Slice
	code slotCode
	last bool
}

func newRing(env *sim.Env, cfg Config, vm string) *ring {
	r := &ring{
		cfg:   cfg,
		reqs:  sim.NewQueue[ringReq](env, 64),
		free:  int64(cfg.RingSlots),
		full:  sim.NewQueue[ringSlot](env, 0),
		vm:    vm,
		epoch: 1,
	}
	r.key = mintRingKey(vm, r.epoch)
	return r
}

// take takes up to want free slot tokens and returns how many it took:
// none while the ring has none free, and the daemon then waits on freed.
//
//lint:hotpath
func (r *ring) take(want int64) int64 {
	n := min(want, r.free)
	r.free -= n
	return n
}

// give returns n slot tokens, waking a daemon waiting for one.
//
//lint:hotpath
func (r *ring) give(n int64) {
	if n > 0 {
		r.free += n
		r.freed.Signal()
	}
}

// rotateKey advances the epoch and mints the next key (RingRestore).
func (r *ring) rotateKey() {
	r.epoch++
	r.key = mintRingKey(r.vm, r.epoch)
}

// slotsFor returns how many slots a byte range occupies.
func (r *ring) slotsFor(n int64) int64 {
	return (n + r.cfg.SlotBytes - 1) / r.cfg.SlotBytes
}
