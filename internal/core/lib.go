package core

import (
	"fmt"
	"strings"

	"vread/internal/cluster"
	"vread/internal/cpusched"
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
	spare  *libCall // the blocking calls' state, reused
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
//     the real request's slot stream stays exact. It returns their count.
func (l *Lib) forgeHostile(req *ringReq, tr *trace.Trace) (storm int) {
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
		return doorbellStormBurst
	}
	return 0
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
// key names the descriptor in the library's hash. It is a thin Proc wrapper
// over libCall.open.
func (l *Lib) OpenPath(p *sim.Proc, tr *trace.Trace, dn, path, key string) (*VFD, bool) {
	c := l.takeCall(tr, p.ArmInline())
	c.open(dn, path, key)
	p.Await()
	l.spare = c
	return c.vfd, c.vfd != nil
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
// caller noticing. It is a thin Proc wrapper over libCall.read.
func (v *VFD) ReadAt(p *sim.Proc, tr *trace.Trace, off, n int64) (data.Slice, error) {
	c := v.lib.takeCall(tr, p.ArmInline())
	c.read(v, off, n)
	p.Await()
	v.lib.spare = c
	return c.s, c.err
}

// Close is vRead_close: drop the descriptor once the last reference goes.
// It is a thin Proc wrapper over a libCall.
func (v *VFD) Close(p *sim.Proc, tr *trace.Trace) {
	c := v.lib.takeCall(tr, p.ArmInline())
	c.vfd = v
	c.st.Charge(v.lib.vm.VCPU, libCallCycles, metrics.TagClientApp, tr, (*libCall).closed)
	p.Await()
	v.lib.spare = c
}

// libCall is one libvread call (open, read or close) in continuation form:
// a chain of event handlers that fires the events the caller's Proc code
// did. Opens and reads share submit; then an open waits for its reply and a
// read drains its slots. The blocking calls are thin Proc wrappers over it.
type libCall struct {
	l     *Lib
	r     *ring
	st    cpusched.Steps[*libCall]
	reply *sim.Queue[openResult] // every open's reply queue
	tr    *trace.Trace
	sp    int // the call's span
	done  func()
	// desc is the call's descriptor, req an attempt's forged copy with storm
	// junk ones to put first; then continues once req is in the ring (reqMu
	// held), and once a drain ends.
	desc, req ringReq
	storm     int
	then      func(*libCall)
	key       string // an open's key in the library's hash
	vfd       *VFD   // the descriptor opened (nil: fall back), read or closed
	// A read's progress: the bytes drained, the item being handed back
	// (last: the read's final one), the doorbell batch so far, how the
	// drain ended, and the result.
	attempt, rsp           int
	got                    data.Builder
	code                   slotCode
	slots, bytes           int64
	last                   bool
	batchSlots, batchBytes int64
	s                      data.Slice
	err                    error
}

// takeCall readies the spare libCall, or a new one, for a call ending in done.
func (l *Lib) takeCall(tr *trace.Trace, done func()) (c *libCall) {
	if c, l.spare = l.spare, nil; c == nil {
		c = &libCall{l: l, r: l.daemon.ring, reply: sim.NewQueue[openResult](l.mgr.env, 0)}
		c.st.Bind(l.mgr.env, c)
	}
	c.tr, c.done, c.s, c.err = tr, done, data.Slice{}, nil
	return c
}

// finish drops the call's references and runs its completion.
func (c *libCall) finish() {
	done := c.done
	c.tr, c.done, c.desc, c.req = nil, nil, ringReq{}, ringReq{}
	c.got.Reset()
	done()
}

// submit puts c.desc into the descriptor area, under sp, the call's span,
// and continues with then, holding reqMu.
func (c *libCall) submit(sp int, then func(*libCall)) {
	c.sp, c.then = sp, then
	c.st.Charge(c.l.vm.VCPU, libCallCycles, metrics.TagClientApp, c.tr, (*libCall).lock)
}

//lint:hotpath
func (c *libCall) lock() {
	if !c.r.reqMu.TryLock() {
		c.r.reqMu.Notify(c.l.mgr.env, c.st.Direct((*libCall).lock))
		return
	}
	c.st.Charge(c.l.vm.VCPU, eventFdCycles, metrics.TagOthers, c.tr, (*libCall).forge)
}

//lint:hotpath
func (c *libCall) forge() {
	c.req = c.desc
	c.req.key, c.req.tr = c.r.key, c.tr
	c.storm = c.l.forgeHostile(&c.req, c.tr)
	c.flood()
}

// flood rings a doorbell before each junk descriptor, then puts req.
//
//lint:hotpath
func (c *libCall) flood() {
	if c.storm == 0 {
		c.put()
		return
	}
	c.st.Charge(c.l.vm.VCPU, eventFdCycles, metrics.TagOthers, c.tr, (*libCall).putJunk)
}

func (c *libCall) putJunk() {
	if !c.r.reqs.TryPut(ringReq{kind: reqOpen, dn: "storm", path: "storm", key: c.req.key}) {
		c.r.reqs.NotifyNotFull(c.st.Direct((*libCall).putJunk))
		return
	}
	c.storm--
	c.flood()
}

//lint:hotpath
func (c *libCall) put() {
	if !c.r.reqs.TryPut(c.req) {
		c.r.reqs.NotifyNotFull(c.st.Direct((*libCall).put))
		return
	}
	c.then(c)
}

// open is OpenPath in continuation form; c.vfd is nil for a fallback.
func (c *libCall) open(dn, path, key string) {
	l := c.l
	if c.vfd = l.vfds[key]; c.vfd != nil {
		c.vfd.refs++
		c.finish()
		return
	}
	l.stats.Opens++
	c.key, c.desc = key, ringReq{kind: reqOpen, dn: dn, path: path, reply: c.reply}
	c.submit(c.tr.Begin(trace.LayerLib, "vread-open"), (*libCall).replied)
}

func (c *libCall) replied() {
	res, ok := c.reply.TryGet()
	if !ok {
		c.reply.Notify(c.st.Direct((*libCall).replied))
		return
	}
	c.r.reqMu.Unlock()
	c.tr.EndSpan(c.sp, 0)
	switch v := c.l.vfds[c.key]; {
	case !res.ok:
		c.tr.Event(trace.LayerLib, "open-fallback", 0)
		c.l.stats.OpenFallbacks++
	case v != nil:
		// A concurrent open of the block got there first: share its
		// descriptor, so neither Close drops the other's.
		c.vfd = v
		v.refs++
	default:
		c.vfd = &VFD{lib: c.l, blockName: c.key, dn: c.desc.dn, path: c.desc.path, size: res.size, refs: 1}
		c.l.vfds[c.key] = c.vfd
	}
	c.finish()
}

// read is ReadAt in continuation form, with its result in c.s and c.err.
func (c *libCall) read(v *VFD, off, n int64) {
	c.vfd = v
	switch {
	case off < 0 || n < 0 || off+n > v.size:
		c.err = fmt.Errorf("core: vRead_read [%d,%d) outside block %s of %d: %w", off, off+n, v.blockName, v.size, ErrBadRange)
		c.finish()
	case n == 0:
		c.finish()
	default:
		v.lib.stats.Reads++
		c.attempt, c.desc = 0, ringReq{kind: reqRead, dn: v.dn, path: v.path, off: off, n: n}
		c.submit(c.tr.Begin(trace.LayerLib, "vread-read"), (*libCall).startDrain)
	}
}

// try is a retry's round trip.
func (c *libCall) try() { c.submit(c.sp, (*libCall).startDrain) }

//lint:hotpath
func (c *libCall) startDrain() { c.drainUnder(c.tr.Begin(trace.LayerRing, "ring-drain")) }

// drainUnder drains the read's slots under span rsp, then runs drained.
func (c *libCall) drainUnder(rsp int) {
	c.rsp, c.batchSlots, c.batchBytes, c.then = rsp, 0, 0, (*libCall).drained
	c.got.Reset()
	c.drain()
}

// drain takes the read's items off the ring, waiting while there is none,
// through the last data slot or the first error slot. Spinlocks and copies
// are charged per doorbell batch, the guest driver's batched consumption.
//
//lint:hotpath
func (c *libCall) drain() {
	item, ok := c.r.full.TryGet()
	switch {
	case !ok && c.r.full.Closed():
		c.code = slotClosed
		c.then(c)
	case !ok:
		c.r.full.Notify(c.st.Direct((*libCall).drain))
	case item.code != slotOK:
		c.r.give(1)
		c.code = item.code
		c.then(c)
	default:
		c.got.Add(item.s)
		c.slots, c.bytes, c.last = c.r.slotsFor(item.s.Len()), item.s.Len(), item.last
		c.giveBack()
	}
}

// giveBack returns the item's slot tokens. A batch may end inside an item:
// its tokens go back before its charge, the boundary slot's only after.
func (c *libCall) giveBack() {
	r, batch := c.r, int64(c.r.cfg.EventBatchSlots)
	for c.slots > 0 {
		k := min(c.slots, batch-c.batchSlots)
		n := min(k*r.cfg.SlotBytes, c.bytes)
		c.slots, c.bytes = c.slots-k, c.bytes-n
		c.batchSlots, c.batchBytes = c.batchSlots+k, c.batchBytes+n
		if c.batchSlots < batch {
			r.give(k)
			continue
		}
		r.give(k - 1)
		c.chargeCopy((*libCall).batchCopied)
		return
	}
	if !c.last {
		c.drain()
		return
	}
	c.chargeCopy((*libCall).copied) // the last batch; nothing when it is empty
}

//lint:hotpath
func (c *libCall) batchCopied() {
	c.batchSlots, c.batchBytes = 0, 0
	c.r.give(1)
	c.giveBack()
}

//lint:hotpath
func (c *libCall) copied() {
	c.code = slotOK
	c.then(c)
}

// chargeCopy charges the batch's slot spinlocks and copies, then runs next.
func (c *libCall) chargeCopy(next func(*libCall)) {
	cycles := slotLockCycles*c.batchSlots + guestCopyCycles(c.batchBytes)
	c.st.Charge(c.l.vm.VCPU, cycles, metrics.TagCopyVRead, c.tr, next)
}

// drained ends one round trip: it finishes the read or schedules a retry.
func (c *libCall) drained() {
	c.tr.EndSpan(c.rsp, c.got.Len())
	c.r.reqMu.Unlock()
	v, n := c.vfd, c.desc.n
	var err error
	switch c.code {
	case slotOK:
		if c.got.Len() != n {
			err = fmt.Errorf("%w of %s: %d of %d", ErrShortRead, v.blockName, c.got.Len(), n)
		}
	case slotClosed:
		err = fmt.Errorf("%w under %s", ErrRingClosed, v.blockName)
	case slotBadKey:
		err = fmt.Errorf("%w reading %s", ErrStaleKey, v.blockName)
	case slotRevoked:
		err = fmt.Errorf("%w reading %s", ErrRingRevoked, v.blockName)
	default:
		err = fmt.Errorf("%w reading %s", ErrDaemonFailed, v.blockName)
	}
	switch {
	case err == nil:
		c.tr.EndSpan(c.sp, n)
		c.l.stats.BytesRead += n
		c.s = c.got.Slice()
	case !retryableRead(err) || c.attempt >= maxReadRetries:
		c.tr.EndSpan(c.sp, 0)
		c.err = err
	default:
		c.l.stats.Retries++
		c.tr.Event(trace.LayerLib, "read-retry", 0)
		c.l.mgr.env.Schedule(retryBackoff<<c.attempt, c.st.Direct((*libCall).try))
		c.attempt++
		return
	}
	c.finish()
}

//lint:hotpath
func (c *libCall) closed() {
	v := c.vfd
	if v.refs--; v.refs <= 0 {
		delete(c.l.vfds, v.blockName)
	}
	c.finish()
}
