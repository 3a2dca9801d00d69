package core

import (
	"fmt"
	"strings"

	"vread/internal/cluster"
	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/guest"
	"vread/internal/hdfs"
	"vread/internal/metrics"
	"vread/internal/sim"
	"vread/internal/trace"
)

// LibStats counts libvread activity in one client VM.
type LibStats struct {
	Opens         int64
	OpenFallbacks int64 // vRead_open returned null → vanilla socket path
	Reads         int64
	BytesRead     int64
	Retries       int64 // reads re-issued after a retryable daemon failure
}

// Lib is libvread: the user-level library of Table 1, wired into HDFS
// through the hdfs.BlockReader hook. It owns the block-name → descriptor
// hash so repeated reads of a block reuse one descriptor.
type Lib struct {
	mgr    *Manager
	vm     *cluster.VM
	daemon *Daemon
	vfds   map[string]*VFD
	stats  LibStats
	// faults is the plan evaluated at the guest-side hostile-ring
	// faultpoints (ring.badslot, ring.stalekey, ring.doorbellstorm) — the
	// manager-wide plan unless InjectGuestFaults armed a per-VM one.
	faults *faults.Plan
}

var _ hdfs.BlockReader = (*Lib)(nil)

func newLib(mgr *Manager, vm *cluster.VM, d *Daemon) *Lib {
	return &Lib{mgr: mgr, vm: vm, daemon: d, vfds: make(map[string]*VFD), faults: mgr.cfg.Faults}
}

// forgeHostile evaluates the hostile-guest faultpoints on one outgoing
// descriptor. These model a misbehaving (or compromised) guest driver, so
// they run on the guest side of the SHM boundary, right before the Put:
//
//   - ring.badslot corrupts the descriptor — an unknown opcode, a negative
//     or overflowing byte range, or an unbounded name, rotating through the
//     variants so a multi-fire plan covers every sanitizer arm;
//   - ring.stalekey stamps the previous epoch's key instead of the current
//     one (a guest replaying descriptors across a restore);
//   - ring.doorbellstorm floods the descriptor area with junk no-reply
//     descriptors ahead of the real one — each costs the daemon a wakeup and
//     advances its revocation streak, but none carries a reply channel, so
//     the real request's slot stream stays exact.
func (l *Lib) forgeHostile(p *sim.Proc, req *ringReq, tr *trace.Trace) {
	f := l.faults
	if f.Should(faults.RingBadSlot) {
		tr.Event(trace.LayerRing, "fault:bad-slot", 0)
		switch f.Fired(faults.RingBadSlot) % 4 {
		case 1:
			req.kind = ringReqKind(99)
		case 2:
			req.off = -1
		case 3:
			req.off = 1 << 62
			req.n = 1 << 62
		default:
			req.dn = strings.Repeat("x", maxRingNameBytes+1)
		}
	}
	if f.Should(faults.RingStaleKey) {
		tr.Event(trace.LayerRing, "fault:stale-key", 0)
		req.key = mintRingKey(l.vm.Name, l.daemon.ring.epoch-1)
	}
	if f.Should(faults.RingDoorbellStorm) {
		tr.Event(trace.LayerRing, "fault:doorbell-storm", 0)
		for i := 0; i < doorbellStormBurst; i++ {
			l.vm.VCPU.RunT(p, eventFdCycles, metrics.TagOthers, tr)
			l.daemon.ring.reqs.Put(p, ringReq{kind: reqOpen, dn: "storm", path: "storm", key: req.key})
		}
	}
}

// Stats returns a copy of the library counters.
func (l *Lib) Stats() LibStats { return l.stats }

// OpenBlock implements hdfs.BlockReader: vRead_open for an HDFS block.
// ok=false falls back to the vanilla socket read (Algorithm 1's
// null-descriptor branch).
func (l *Lib) OpenBlock(p *sim.Proc, tr *trace.Trace, client *guest.Kernel, info hdfs.BlockInfo, dn string) (hdfs.BlockHandle, bool) {
	if client.Name() != l.vm.Name {
		return nil, false // library belongs to a different VM
	}
	return l.OpenPath(p, tr, dn, hdfs.BlockPathByName(info.BlockName()), info.BlockName())
}

// OpenPath is the generic vRead_open underneath OpenBlock: open any file on
// a datanode VM's image by path. This is the §3 generalization hook — other
// distributed file systems (QFS, GFS) plug their own chunk layouts in here.
// key names the descriptor in the library's hash.
func (l *Lib) OpenPath(p *sim.Proc, tr *trace.Trace, dn, path, key string) (*VFD, bool) {
	if vfd, ok := l.vfds[key]; ok {
		vfd.refs++
		return vfd, true
	}
	l.stats.Opens++
	vcpu := l.vm.VCPU
	sp := tr.Begin(trace.LayerLib, "vread-open")
	vcpu.RunT(p, libCallCycles, metrics.TagClientApp, tr)

	l.daemon.ring.reqMu.Lock(p)
	vcpu.RunT(p, eventFdCycles, metrics.TagOthers, tr)
	reply := sim.NewQueue[openResult](l.mgr.env, 0)
	req := ringReq{kind: reqOpen, dn: dn, path: path, key: l.daemon.ring.key, reply: reply, tr: tr}
	l.forgeHostile(p, &req, tr)
	l.daemon.ring.reqs.Put(p, req)
	res, _ := reply.Get(p)
	l.daemon.ring.reqMu.Unlock()
	tr.EndSpan(sp, 0)

	if !res.ok {
		tr.Event(trace.LayerLib, "open-fallback", 0)
		l.stats.OpenFallbacks++
		return nil, false
	}
	vfd := &VFD{lib: l, blockName: key, dn: dn, path: path, size: res.size, refs: 1}
	l.vfds[key] = vfd
	return vfd, true
}

// VFD is an open vRead descriptor (Table 1).
type VFD struct {
	lib       *Lib
	blockName string
	dn        string
	path      string
	size      int64
	refs      int
	pos       int64 // sequential cursor for Seek/Read (Table 1 API parity)
}

var _ hdfs.BlockHandle = (*VFD)(nil)

// Seek is vRead_seek: set the descriptor's file offset, returning the
// resulting offset (Table 1's contract).
func (v *VFD) Seek(p *sim.Proc, off int64) (int64, error) {
	v.lib.vm.VCPU.Run(p, libCallCycles, metrics.TagClientApp)
	if off < 0 || off > v.size {
		return v.pos, fmt.Errorf("core: vRead_seek to %d outside [0,%d] of %s: %w", off, v.size, v.blockName, ErrBadRange)
	}
	v.pos = off
	return v.pos, nil
}

// Read is the sequential form of vRead_read: read up to n bytes from the
// descriptor's current offset, advancing it.
func (v *VFD) Read(p *sim.Proc, n int64) (data.Slice, error) {
	if remaining := v.size - v.pos; n > remaining {
		n = remaining
	}
	s, err := v.ReadAt(p, nil, v.pos, n)
	if err == nil {
		v.pos += n
	}
	return s, err
}

// ReadAt is vRead_read: write the request descriptor to the ring, doorbell
// the daemon, then drain slots into the application buffer. Retryable
// failures (ErrDaemonFailed, ErrShortRead) are re-issued with exponential
// backoff up to maxReadRetries before surfacing — the degradation layer that
// rides out a daemon restart or a transient remote failure without the
// caller noticing.
func (v *VFD) ReadAt(p *sim.Proc, tr *trace.Trace, off, n int64) (data.Slice, error) {
	if off < 0 || n < 0 || off+n > v.size {
		return data.Slice{}, fmt.Errorf("core: vRead_read [%d,%d) outside block %s of %d: %w", off, off+n, v.blockName, v.size, ErrBadRange)
	}
	if n == 0 {
		return data.Slice{}, nil
	}
	l := v.lib
	l.stats.Reads++
	sp := tr.Begin(trace.LayerLib, "vread-read")
	var s data.Slice
	var err error
	for attempt := 0; ; attempt++ {
		s, err = v.readOnce(p, tr, off, n)
		if err == nil || !retryableRead(err) || attempt >= maxReadRetries {
			break
		}
		l.stats.Retries++
		tr.Event(trace.LayerLib, "read-retry", 0)
		p.Sleep(retryBackoff << attempt)
	}
	if err != nil {
		tr.EndSpan(sp, 0)
		return data.Slice{}, err
	}
	tr.EndSpan(sp, n)
	l.stats.BytesRead += n
	return s, nil
}

// readOnce is one ring round trip: request descriptor in, slots drained out.
func (v *VFD) readOnce(p *sim.Proc, tr *trace.Trace, off, n int64) (data.Slice, error) {
	l := v.lib
	vcpu := l.vm.VCPU
	vcpu.RunT(p, libCallCycles, metrics.TagClientApp, tr)

	ring := l.daemon.ring
	ring.reqMu.Lock(p)
	defer ring.reqMu.Unlock()
	vcpu.RunT(p, eventFdCycles, metrics.TagOthers, tr)
	req := ringReq{kind: reqRead, dn: v.dn, path: v.path, off: off, n: n, key: ring.key, tr: tr}
	l.forgeHostile(p, &req, tr)
	ring.reqs.Put(p, req)

	rsp := tr.Begin(trace.LayerRing, "ring-drain")
	runs, code := v.drain(p, tr, ring)
	tr.EndSpan(rsp, runs.got)
	switch code {
	case slotOK:
	case slotClosed:
		return data.Slice{}, fmt.Errorf("%w under %s", ErrRingClosed, v.blockName)
	case slotBadKey:
		return data.Slice{}, fmt.Errorf("%w reading %s", ErrStaleKey, v.blockName)
	case slotRevoked:
		return data.Slice{}, fmt.Errorf("%w reading %s", ErrRingRevoked, v.blockName)
	default:
		return data.Slice{}, fmt.Errorf("%w reading %s", ErrDaemonFailed, v.blockName)
	}
	if runs.got != n {
		return data.Slice{}, fmt.Errorf("%w of %s: %d of %d", ErrShortRead, v.blockName, runs.got, n)
	}
	return runs.slice(), nil
}

// drain consumes one read's slots from the ring, through the last data slot
// or the first error slot, handing each slot token back to the daemon. It
// returns the slots joined into runs, and slotOK, the error slot's code, or
// slotClosed when the ring closed under the read.
//
//lint:hotpath
func (v *VFD) drain(p *sim.Proc, tr *trace.Trace, ring *ring) (runs slotRuns, code slotCode) {
	// Spinlocks and slot→application copies are charged in doorbell-batch
	// units, matching the driver's batched consumption. A batch may end
	// inside an item: the tokens of its slots go back before the charge,
	// but the boundary slot's token only after it.
	batch := int64(ring.cfg.EventBatchSlots)
	var batchSlots, batchBytes int64
	for {
		item, ok := ring.full.Get(p)
		if !ok {
			return runs, slotClosed
		}
		if item.code != slotOK {
			ring.give(1)
			return runs, item.code
		}
		runs.add(item)
		for slots, bytes := ring.slotsFor(item.s.Len()), item.s.Len(); slots > 0; {
			k := min(slots, batch-batchSlots)
			n := min(k*ring.cfg.SlotBytes, bytes)
			slots, bytes = slots-k, bytes-n
			batchSlots, batchBytes = batchSlots+k, batchBytes+n
			if batchSlots < batch {
				ring.give(k)
				continue
			}
			ring.give(k - 1)
			v.chargeCopy(p, tr, batchSlots, batchBytes)
			batchSlots, batchBytes = 0, 0
			ring.give(1)
		}
		if item.last {
			break
		}
	}
	if batchSlots > 0 {
		v.chargeCopy(p, tr, batchSlots, batchBytes)
	}
	return runs, slotOK
}

// chargeCopy charges one doorbell batch of slot spinlocks and
// slot→application copies to the guest vCPU.
func (v *VFD) chargeCopy(p *sim.Proc, tr *trace.Trace, slots, bytes int64) {
	v.lib.vm.VCPU.RunT(p, slotLockCycles*slots+guestCopyCycles(bytes), metrics.TagCopyVRead, tr)
}

// slotRuns joins a read's data items back into one Slice. Items with the
// same run stamp are contiguous windows of one daemon fill, so the open run
// just widens; only a run boundary boxes the finished run into parts.
type slotRuns struct {
	open  data.Slice
	run   uint64
	parts data.Concat // finished runs, one window each
	got   int64       // bytes drained
}

func (r *slotRuns) add(slot ringSlot) {
	switch {
	case r.got == 0:
		r.open, r.run = slot.s, slot.run
	case slot.run == r.run:
		r.open.N += slot.s.N
	default:
		r.closeRun()
		r.open, r.run = slot.s, slot.run
	}
	r.got += slot.s.N
}

// closeRun boxes the open run into parts.
//
//lint:allow hotalloc(multi-run fallback: one window per daemon fill, never one per slot)
func (r *slotRuns) closeRun() { r.parts = append(r.parts, r.open.Content()) }

// slice returns the drained bytes: the open run itself when the read was one
// run, else a Concat of one window per run.
func (r *slotRuns) slice() data.Slice {
	if r.parts == nil {
		return r.open
	}
	r.closeRun()
	return data.NewSlice(r.parts)
}

// Close is vRead_close: drop the descriptor once the last reference goes.
func (v *VFD) Close(p *sim.Proc, tr *trace.Trace) {
	l := v.lib
	l.vm.VCPU.RunT(p, libCallCycles, metrics.TagClientApp, tr)
	v.refs--
	if v.refs <= 0 {
		delete(l.vfds, v.blockName)
	}
}
