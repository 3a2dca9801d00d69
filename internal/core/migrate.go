package core

import (
	"fmt"
	"time"

	"vread/internal/faults"
	"vread/internal/sim"
)

// This file is the availability half of the hardened ring: the
// RingSnapshot/RingRestore quiesce protocol and the live mount migration
// built on it. The protocol exists because a mount can only be torn down
// safely when no descriptor references it — quiescing drains in-flight
// descriptors into a replayable pending set, the mount moves, and the
// restore rotates the ring key and replays the set, so a guest blocked on a
// read through the blackout simply sees a slow read, never an error or a
// torn stream.

// RingSnapshot is the token returned by a successful quiesce. It pins the
// key epoch it was taken under; a restore with a stale snapshot (the ring
// was restored by someone else in between) is refused.
type RingSnapshot struct {
	vm    string
	epoch int64
}

// daemonFor resolves a VM name to its daemon, or nil when unknown. The name
// may ride in a RingSnapshot alongside captured guest descriptors, so the
// lookup is the declared laundering point: a nil-checked map hit keys no
// state an unknown or forged name could reach.
//
//lint:sanitizer guesttaint(VM names resolve only through a nil-checked daemon-table lookup)
func (m *Manager) daemonFor(vm string) *Daemon { return m.daemons[vm] }

// RingSnapshot quiesces one client VM's ring: the state flips to quiesced,
// descriptors already in the descriptor area drain into the pending set, and
// the call blocks until the request the daemon is currently serving (if any)
// completes. On return the ring is quiet — no daemon-side work references
// any mount on behalf of this VM — and every descriptor that arrives until
// RingRestore is captured, not served.
func (m *Manager) RingSnapshot(p *sim.Proc, vm string) (*RingSnapshot, error) {
	d := m.daemonFor(vm)
	if d == nil {
		return nil, fmt.Errorf("%w: no vRead client %q", ErrBadQuiesce, vm)
	}
	r := d.ring
	if r.state != ringAttached {
		return nil, fmt.Errorf("%w: ring of %q is %s, not attached", ErrBadQuiesce, vm, r.state)
	}
	r.state = ringQuiesced
	// Drain the descriptor area into the pending set. Nothing can interleave
	// with this loop (TryGet never blocks), so capture order is exactly
	// submission order.
	for {
		req, ok := r.reqs.TryGet()
		if !ok {
			break
		}
		r.pending = append(r.pending, req)
		emit(req.tr, &d.stats.QuiesceHolds, "ring-quiesce-hold", 1)
	}
	for d.busy {
		d.idle.Wait(p)
	}
	return &RingSnapshot{vm: vm, epoch: r.epoch}, nil
}

// RingRestore re-attaches a quiesced ring: the key rotates to the next
// epoch (descriptors stamped with the old key are now stale and rejected
// typed), the state flips back to attached, and the daemon is kicked to
// replay the pending set in capture order under the new key.
func (m *Manager) RingRestore(p *sim.Proc, snap *RingSnapshot) error {
	if snap == nil {
		return fmt.Errorf("%w: nil snapshot", ErrBadQuiesce)
	}
	d := m.daemonFor(snap.vm)
	if d == nil {
		return fmt.Errorf("%w: no vRead client %q", ErrBadQuiesce, snap.vm)
	}
	r := d.ring
	if r.state != ringQuiesced {
		return fmt.Errorf("%w: ring of %q is %s, not quiesced", ErrBadQuiesce, snap.vm, r.state)
	}
	if r.epoch != snap.epoch {
		return fmt.Errorf("%w: snapshot of %q is for epoch %d, ring is at %d", ErrBadQuiesce, snap.vm, snap.epoch, r.epoch)
	}
	r.rotateKey()
	r.state = ringAttached
	r.reqs.Put(p, ringReq{kind: reqResume, key: r.key})
	return nil
}

// MountMigration reports one live mount migration.
type MountMigration struct {
	VM       string        // the migrated datanode VM
	SrcHost  string        // host the mount left
	DstHost  string        // host the mount landed on
	Blackout time.Duration // virtual quiesce-start → rings-restored window
	Quiesced int           // client rings quiesced for the cutover
	Captured int           // descriptors captured and replayed across the blackout
}

// MigrateMount live-migrates a datanode VM and its mount from srcHost to
// dstHost: quiesce every attached client ring, unmount the image on the
// source, migrate the VM, pay the image re-attach delay, re-mount and resync
// on the target, then restore the rings (rotating their keys) and replay
// every captured descriptor. Reads in flight across the cutover block on
// their reply slots and complete after the replay — the blackout shows up as
// read latency, never as an error or lost read.
func (m *Manager) MigrateMount(p *sim.Proc, vm, srcHost, dstHost string) (MountMigration, error) {
	mig := MountMigration{VM: vm, SrcHost: srcHost, DstHost: dstHost}
	dnVM := m.cl.VM(vm)
	if dnVM == nil {
		return mig, fmt.Errorf("%w: unknown VM %q", ErrBadMigration, vm)
	}
	if dnVM.Host.Name != srcHost {
		return mig, fmt.Errorf("%w: %q lives on %q, not %q", ErrBadMigration, vm, dnVM.Host.Name, srcHost)
	}
	dst := m.cl.Host(dstHost)
	if dst == nil {
		return mig, fmt.Errorf("%w: unknown host %q", ErrBadMigration, dstHost)
	}
	if srcHost == dstHost {
		return mig, fmt.Errorf("%w: %q is already on %q", ErrBadMigration, vm, dstHost)
	}
	if m.mount(srcHost, vm) == nil {
		return mig, fmt.Errorf("%w: %q is not mounted on %q", ErrBadMigration, vm, srcHost)
	}
	start := m.env.Now()
	// Quiesce every attached client ring in EnableClient order. Quiesced or
	// revoked rings are skipped: a concurrent snapshot owns the former, and
	// the latter serves nothing anyway.
	snaps := make([]*RingSnapshot, 0, len(m.clientOrder))
	for _, cvm := range m.clientOrder {
		if m.daemons[cvm].ring.state != ringAttached {
			continue
		}
		snap, err := m.RingSnapshot(p, cvm)
		if err != nil {
			return mig, err
		}
		snaps = append(snaps, snap)
	}
	mig.Quiesced = len(snaps)

	m.UnmountDatanode(srcHost, vm)
	m.cl.MigrateVM(vm, dst)
	p.Sleep(migrateRemountDelay)
	m.MountDatanode(vm)
	m.ResyncHost(dstHost)

	for _, snap := range snaps {
		mig.Captured += len(m.daemonFor(snap.vm).ring.pending)
		if err := m.RingRestore(p, snap); err != nil {
			return mig, err
		}
	}
	mig.Blackout = m.env.Now() - start
	return mig, nil
}

// MaybeMigrateMount evaluates the mount.migrate faultpoint and, when it
// fires, live-migrates the named datanode's mount to dstHost (the fault-plan
// action form of MigrateMount, mirroring Cluster.MaybeKillRack). The source
// host is the VM's current host; a no-op move (already on dstHost) reports
// the firing without migrating.
func (m *Manager) MaybeMigrateMount(p *sim.Proc, vm, dstHost string) (MountMigration, bool, error) {
	if !m.cfg.Faults.Should(faults.MountMigrate) {
		return MountMigration{}, false, nil
	}
	dnVM := m.cl.VM(vm)
	if dnVM == nil {
		return MountMigration{}, true, fmt.Errorf("%w: unknown VM %q", ErrBadMigration, vm)
	}
	if dnVM.Host.Name == dstHost {
		return MountMigration{VM: vm, SrcHost: dstHost, DstHost: dstHost}, true, nil
	}
	mig, err := m.MigrateMount(p, vm, dnVM.Host.Name, dstHost)
	return mig, true, err
}
