package core

import (
	"vread/internal/cluster"
	"vread/internal/cpusched"
	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/fsim"
	"vread/internal/metrics"
	"vread/internal/sim"
	"vread/internal/storage"
	"vread/internal/trace"
)

// DaemonStats counts one daemon's activity. The daemon increments each
// counter where the event happens; emit also marks it on the request's trace.
type DaemonStats struct {
	Opens         int64
	OpenMisses    int64 // stale dentry / unknown datanode → vanilla fallback
	BytesLocal    int64 // served from a local mount
	BytesRemote   int64 // served daemon-to-daemon
	Crashes       int64 // injected daemon crash/restart cycles
	RemoteRetries int64 // remote windows re-requested after timeout/gap
	DoorbellsLost int64 // doorbells recovered by the guest watchdog
	RingRejects   int64 // descriptors the sanitizer refused (malformed, stale key, revoked)
	StaleKeys     int64 // rejects specifically for a stale ring key
	Revocations   int64 // ring permission revocations (at most 1 per ring)
	Replayed      int64 // captured descriptors replayed after a RingRestore
	QuiesceHolds  int64 // descriptors captured into the pending set while quiesced
}

// Daemon is the per-VM hypervisor daemon (§3.2): it owns the shared-memory
// ring of one client VM and serves its vRead requests from mounted datanode
// images (local) or peer daemons (remote).
type Daemon struct {
	cfg    Config
	mgr    *Manager
	vm     *cluster.VM // the client VM served
	host   *cluster.Host
	thread *cpusched.Thread
	ring   *ring
	hr     *hostReader
	stats  DaemonStats
	// faults is the plan evaluated at this daemon's (and its guest's)
	// faultpoints — the manager-wide plan unless InjectGuestFaults armed a
	// per-VM one, so a hostile-guest storm can target a single ring.
	faults *faults.Plan
	// busy is true while one descriptor is being served; idle broadcasts on
	// every return to the pop loop. RingSnapshot waits on it to let the
	// in-service request drain before the blackout starts.
	busy bool
	idle sim.Signal
}

func newDaemon(mgr *Manager, vm *cluster.VM) *Daemon {
	thread := vm.Host.CPU.NewThread("vread-daemon:"+vm.Name, DaemonEntity(vm.Host.Name))
	d := &Daemon{
		cfg:    mgr.cfg,
		mgr:    mgr,
		vm:     vm,
		host:   vm.Host,
		thread: thread,
		ring:   newRing(mgr.env, mgr.cfg, vm.Name),
		hr:     newHostReader(mgr.ensureServer(vm.Host), thread),
		faults: mgr.cfg.Faults,
	}
	mgr.env.Go("vread-daemon:"+vm.Name, d.loop)
	return d
}

// RingState exposes the ring's permission state (tests and tooling).
func (d *Daemon) RingState() string { return d.ring.state.String() }

// emit adds n to one of the daemon's counters and, when the request is
// sampled, marks the event on its trace.
func emit(tr *trace.Trace, counter *int64, name string, n int64) {
	*counter += n
	tr.Event(trace.LayerDaemon, name, n)
}

// hostReader is the shared "read a mounted image through the host FS"
// machinery used by both local daemons and the per-host remote server:
// host page cache, disk misses, loop-device CPU, and the host file system's
// sequential readahead.
type hostReader struct {
	cfg    Config
	cl     *cluster.Cluster
	host   *cluster.Host
	mounts map[string]*fsim.HostMount // the host's mount map, owned by its server
	thread *cpusched.Thread
	ra     *storage.Readahead
}

// newHostReader returns a reader over srv's host and mount map that charges
// its work to thread.
func newHostReader(srv *hostServer, thread *cpusched.Thread) *hostReader {
	return &hostReader{
		cfg: srv.mgr.cfg, cl: srv.mgr.cl, host: srv.host, mounts: srv.mounts, thread: thread,
		ra: storage.NewReadahead(srv.host.CPU.Env(), srv.host.Cache, hostReadaheadBytes, 0),
	}
}

// mountedFile is a block file resolved through the host's mount: the path's
// snapshot size and the host page-cache object its pages live under.
type mountedFile struct {
	mnt  *fsim.HostMount
	path string
	size int64
	obj  int64
}

// lookup resolves path on the host's mount of datanode dn. It reports false
// when dn is not mounted on the host or the path has no dentry (never
// refreshed, or lost in a daemon crash); the caller then fails the request
// and the guest falls back to the vanilla path.
func (h *hostReader) lookup(dn, path string) (mountedFile, bool) {
	mnt := h.mounts[dn]
	if mnt == nil {
		return mountedFile{}, false
	}
	e, ok := mnt.Lookup(path)
	if !ok {
		return mountedFile{}, false
	}
	return mountedFile{mnt: mnt, path: path, size: e.Size, obj: h.cl.VM(dn).HostCacheObject(e.Node.Ino())}, true
}

// readChunk reads [off, off+n) of f: the host-side cost (read), the bytes
// from the mount, then plan's disk.read.error and disk.read.torn
// faultpoints, each firing marked on tr at layer. An error fails the chunk;
// a torn read returns only the chunk's first half, with torn set.
func (h *hostReader) readChunk(p *sim.Proc, tr *trace.Trace, plan *faults.Plan, layer trace.Layer, f mountedFile, off, n int64) (s data.Slice, torn bool, err error) {
	h.read(p, tr, f.obj, f.size, off, n)
	s, err = f.mnt.ReadAt(f.path, off, n)
	if err == nil && plan.Should(faults.DiskReadError) {
		tr.Event(layer, "fault:disk-error", 0)
		err = fsim.ErrStale
	}
	if err != nil {
		return data.Slice{}, false, err
	}
	if n > 1 && plan.Should(faults.DiskReadTorn) {
		tr.Event(layer, "fault:disk-torn", 0)
		return s.Sub(0, n/2), true, nil
	}
	return s, false, nil
}

// read charges the full host-side cost of reading [off, off+n) of the
// mounted file cached as obj, with snapshot size fileSize.
func (h *hostReader) read(p *sim.Proc, tr *trace.Trace, obj, fileSize, off, n int64) {
	sp := tr.Begin(trace.LayerHostFS, "host-read")
	if h.cfg.DirectDiskBypass {
		// §6: raw device read — no host cache, triple address translation.
		h.thread.RunT(p, addrTranslateCycles, metrics.TagOthers, tr)
		h.thread.RunT(p, diskSubmitCycles, metrics.TagDiskRead, tr)
		h.host.Disk.ReadT(p, tr, n)
	} else {
		_, miss := h.host.Cache.Lookup(obj, off, n)
		if miss > 0 {
			h.ra.Wait(p, obj, off, n)
			if _, miss = h.host.Cache.Lookup(obj, off, n); miss > 0 {
				tr.Event(trace.LayerHostFS, "host-cache-miss", miss)
				h.thread.RunT(p, diskSubmitCycles, metrics.TagDiskRead, tr)
				h.host.Disk.ReadT(p, tr, miss)
				h.host.Cache.Insert(obj, off, n)
			} else {
				tr.Event(trace.LayerHostFS, "host-cache-hit", n)
			}
		} else {
			tr.Event(trace.LayerHostFS, "host-cache-hit", n)
		}
		// The readahead's submit and disk time charge to the triggering
		// request's trace: the I/O runs on its behalf even though it
		// completes asynchronously.
		h.ra.Advance(obj, fileSize, off, n, func(n int64, done func()) bool {
			h.thread.PostT(diskSubmitCycles, metrics.TagDiskRead, tr, nil)
			h.host.Disk.ReadAsyncT(tr, n, done)
			return true
		})
	}
	h.thread.RunT(p, loopReadCycles(n), metrics.TagLoopDevice, tr)
	tr.EndSpan(sp, n)
}

// Stats returns a copy of the daemon's counters.
func (d *Daemon) Stats() DaemonStats { return d.stats }

// loop services ring requests, one at a time (the ring serializes). The
// state machine sits here: a resume kick replays the pending set, a quiesced
// ring captures instead of serving, and everything else goes through serve.
func (d *Daemon) loop(p *sim.Proc) {
	for {
		req, ok := d.ring.reqs.Get(p)
		if !ok {
			return
		}
		if req.kind == reqResume {
			// Only the restore path knows the freshly rotated key; a guest
			// forging the kind fails this guard and is dropped like a
			// corrupt doorbell write.
			if req.key == d.ring.key && d.ring.state == ringAttached {
				d.replayPending(p)
			}
			continue
		}
		if d.ring.state == ringQuiesced {
			d.ring.pending = append(d.ring.pending, req)
			emit(req.tr, &d.stats.QuiesceHolds, "ring-quiesce-hold", 1)
			continue
		}
		d.busy = true
		d.serve(p, req)
		d.busy = false
		d.idle.Broadcast()
	}
}

// replayPending serves the descriptors captured across a quiesce, in arrival
// order, re-stamped with the rotated key (the restore re-admits them — the
// old key is dead). A re-quiesce mid-replay re-captures the remainder.
func (d *Daemon) replayPending(p *sim.Proc) {
	pend := d.ring.pending
	d.ring.pending = nil
	d.busy = true
	for i, pr := range pend {
		if d.ring.state != ringAttached {
			d.ring.pending = append(d.ring.pending, pend[i:]...)
			break
		}
		pr.key = d.ring.key
		emit(pr.tr, &d.stats.Replayed, "ring-replay", 1)
		d.serve(p, pr)
	}
	d.busy = false
	d.idle.Broadcast()
}

// serve handles one descriptor: sanitize, evaluate the crash fault, then
// dispatch.
func (d *Daemon) serve(p *sim.Proc, req ringReq) {
	req, verdict := d.sanitizeReq(req)
	// Wake from the guest's doorbell.
	d.thread.RunT(p, eventFdCycles, metrics.TagOthers, req.tr)
	if verdict != reqAccept {
		d.rejectReq(p, req, verdict)
		return
	}
	d.ring.badStreak = 0
	if d.faults.Should(faults.DaemonCrash) {
		d.crashRestart(p, req)
		return
	}
	switch req.kind {
	case reqOpen:
		d.handleOpen(p, req)
	case reqRead:
		d.handleRead(p, req)
	}
}

// maxRingNameBytes bounds the dn and path strings one descriptor may carry,
// matching the prototype's fixed-size descriptor slots.
const maxRingNameBytes = 4096

func validRingName(s string) bool { return s != "" && len(s) <= maxRingNameBytes }

// reqVerdict is sanitizeReq's ruling on one descriptor.
type reqVerdict int

const (
	reqAccept    reqVerdict = iota
	reqMalformed            // bad opcode, unbounded name, or bad byte range
	reqStaleKey             // key does not match the ring's current epoch
	reqDenied               // ring permission revoked
)

// sanitizeReq is the daemon-side validation of one guest-written ring
// descriptor (§3.3 hardened per SIVSHM): the ring must not be revoked, the
// descriptor's key must match the ring's current epoch key (checked on every
// doorbell), the opcode must be known, the datanode ID and block path
// non-empty and bounded, the byte range non-negative without overflow, and
// an open must carry its reply queue. The raw fields feed map lookups,
// readahead keys, and offset arithmetic, so nothing downstream may see a
// descriptor this has not accepted.
//
//lint:sanitizer guesttaint(rejects revoked rings, stale keys, unknown opcodes, unbounded names, and negative or overflowing byte ranges at the pop)
func (d *Daemon) sanitizeReq(req ringReq) (ringReq, reqVerdict) {
	if d.ring.state == ringRevoked {
		return req, reqDenied
	}
	if req.key != d.ring.key {
		return req, reqStaleKey
	}
	switch req.kind {
	case reqOpen:
		if req.reply == nil {
			return req, reqMalformed
		}
	case reqRead:
	default:
		return req, reqMalformed
	}
	if !validRingName(req.dn) || !validRingName(req.path) {
		return req, reqMalformed
	}
	if req.off < 0 || req.n < 0 || req.off+req.n < 0 {
		return req, reqMalformed
	}
	return req, reqAccept
}

// rejectReq fails a refused descriptor back to the guest without touching
// any daemon state, and advances the revocation streak. Liveness contract:
// any descriptor with a reply queue gets an empty reply, any other shape
// gets an error slot — except an open-like descriptor with no reply channel,
// which is dropped like a corrupt doorbell write (nothing is waiting on it;
// an error slot would poison the next real read's stream).
func (d *Daemon) rejectReq(p *sim.Proc, req ringReq, verdict reqVerdict) {
	emit(req.tr, &d.stats.RingRejects, "ring-reject", 1)
	code := slotFailed
	switch verdict {
	case reqStaleKey:
		code = slotBadKey
		emit(req.tr, &d.stats.StaleKeys, "ring-stale-key", 1)
		req.tr.Event(trace.LayerRing, "ring-reject:stale-key", 0)
	case reqDenied:
		code = slotRevoked
		req.tr.Event(trace.LayerRing, "ring-reject:revoked", 0)
	default:
		req.tr.Event(trace.LayerRing, "ring-reject:malformed", 0)
	}
	if d.ring.state != ringRevoked {
		d.ring.badStreak++
		if t := d.cfg.RingRevokeThreshold; t > 0 && d.ring.badStreak >= t {
			d.ring.state = ringRevoked
			emit(req.tr, &d.stats.Revocations, "ring-revoke", 1)
			req.tr.Event(trace.LayerRing, "ring-revoked", 0)
		}
	}
	switch {
	case req.reply != nil:
		req.reply.Put(p, openResult{})
	case req.kind == reqOpen:
		// Junk no-reply open: dropped; no reader is blocked on it.
	default:
		d.pushErrorCode(p, req.tr, code)
	}
}

// crashRestart models the daemon dying under a request and supervisord
// bringing it back: the in-flight request fails (the guest sees an error and
// falls back), the host's cached mount metadata is lost — every mount stale
// until vRead_update or a resync — and the ring goes quiet for the restart
// delay.
func (d *Daemon) crashRestart(p *sim.Proc, req ringReq) {
	emit(req.tr, &d.stats.Crashes, "crash", 1)
	req.tr.Event(trace.LayerDaemon, "fault:daemon-crash", 0)
	d.mgr.invalidateMounts(d.host.Name)
	switch req.kind {
	case reqOpen:
		req.reply.Put(p, openResult{})
	case reqRead:
		d.pushError(p, req.tr)
	}
	p.Sleep(daemonRestartDelay)
}

// InjectFaults arms a plan on this daemon's faultpoints (per-VM targeting;
// the manager-wide plan is the default).
func (d *Daemon) InjectFaults(plan *faults.Plan) { d.faults = plan }

// handleOpen resolves a block file against the mount hash (local) or a peer
// daemon (remote) and replies through the ring.
func (d *Daemon) handleOpen(p *sim.Proc, req ringReq) {
	sp := req.tr.Begin(trace.LayerDaemon, "open")
	d.thread.RunT(p, openCycles, metrics.TagOthers, req.tr)
	emit(req.tr, &d.stats.Opens, "open", 1)
	res := openResult{}
	dnHost, known := d.mgr.fabric().HostOf(req.dn)
	switch {
	case !known:
		// Unknown datanode: fall back.
	case dnHost == d.host.Name:
		if f, ok := d.hr.lookup(req.dn, req.path); ok {
			res = openResult{ok: true, size: f.size}
		}
	default:
		res = d.mgr.remoteOpen(p, d, dnHost, req)
	}
	if !res.ok {
		emit(req.tr, &d.stats.OpenMisses, "open-miss", 1)
	}
	req.tr.EndSpan(sp, 0)
	req.reply.Put(p, res)
}

// handleRead serves one read request into the ring.
func (d *Daemon) handleRead(p *sim.Proc, req ringReq) {
	dnHost, known := d.mgr.fabric().HostOf(req.dn)
	if !known {
		d.pushError(p, req.tr)
		return
	}
	if dnHost == d.host.Name {
		d.readLocal(p, req)
		return
	}
	d.readRemote(p, dnHost, req)
}

// readLocal reads from the loop-mounted image through the host page cache
// (or the raw device with DirectDiskBypass) and fills ring slots.
func (d *Daemon) readLocal(p *sim.Proc, req ringReq) {
	f, ok := d.hr.lookup(req.dn, req.path)
	if !ok {
		d.pushError(p, req.tr)
		return
	}
	sp := req.tr.Begin(trace.LayerDaemon, "read-local")
	batch := int64(d.cfg.EventBatchSlots) * d.cfg.SlotBytes
	for off := req.off; off < req.off+req.n; {
		want := req.off + req.n - off
		if want > batch {
			want = batch
		}
		s, torn, err := d.hr.readChunk(p, req.tr, d.faults, trace.LayerDaemon, f, off, want)
		if err != nil {
			req.tr.EndSpan(sp, off-req.off)
			d.pushError(p, req.tr)
			return
		}
		if torn {
			// Torn read: a prefix lands in the ring, then the stream ends.
			// libvread's byte-count check turns it into ErrShortRead and
			// retries — never silent truncation.
			d.fillSlots(p, req.tr, s, true)
			d.doorbell(p, req.tr)
			req.tr.EndSpan(sp, off-req.off+s.Len())
			return
		}
		last := off+want == req.off+req.n
		d.fillSlots(p, req.tr, s, last)
		d.doorbell(p, req.tr)
		d.stats.BytesLocal += want
		off += want
	}
	req.tr.EndSpan(sp, req.n)
}

// readRemote pulls windows of the range from the peer daemon and relays the
// arriving chunks into the ring. With RDMA the payload lands in the SHM
// directly (no local per-byte cost); with TCP the local daemon pays a
// per-segment user-level receive cost (charged by the transport).
//
// Degradation: each chunk wait is bounded by remoteReadTimeout and verified
// contiguous via its offset. A timeout, error chunk, or gap retires the
// window (finishRemote on every path — a dropped final chunk can never leave
// a blocked queue reader behind), notes the transport failure (RDMA pairs
// downgrade to TCP), and re-requests the remainder from the end of the
// delivered prefix — slots already in the ring are never re-sent, so the
// guest stream stays exact. maxReadRetries exhausted → error slot → the
// guest falls back.
func (d *Daemon) readRemote(p *sim.Proc, dnHost string, req ringReq) {
	sp := req.tr.Begin(trace.LayerDaemon, "read-remote")
	req.tr.Annotate(sp, "peer", dnHost)
	retries := 0
	for off := req.off; off < req.off+req.n; {
		win := req.off + req.n - off
		if win > d.cfg.RemoteWindowBytes {
			win = d.cfg.RemoteWindowBytes
		}
		id, chunks := d.mgr.remoteRequest(p, d, dnHost, remoteReq{dn: req.dn, path: req.path, off: off, n: win, tr: req.tr})
		var got int64
		failed := false
		for got < win {
			msg, ok := chunks.GetTimeout(p, remoteReadTimeout)
			if !ok || msg.err || msg.off != off+got {
				failed = true
				break
			}
			last := off+got+msg.payload.Len() == req.off+req.n
			d.fillSlots(p, req.tr, msg.payload, last)
			got += msg.payload.Len()
			d.stats.BytesRemote += msg.payload.Len()
		}
		d.mgr.finishRemote(id)
		if failed {
			d.mgr.noteRemoteFailureT(req.tr, d.host.Name, dnHost)
			retries++
			if retries > maxReadRetries {
				req.tr.EndSpan(sp, off+got-req.off)
				d.pushError(p, req.tr)
				return
			}
			emit(req.tr, &d.stats.RemoteRetries, "remote-retry", 1)
			off += got // keep the delivered contiguous prefix
			continue
		}
		d.doorbell(p, req.tr)
		off += win
	}
	req.tr.EndSpan(sp, req.n)
}

// fillSlots splits a slice across ring slots, paying the per-slot lock cost
// as one batched charge (the per-byte copy into the ring is part of
// loopReadCycles locally, and of the transport cost remotely). It pushes the
// slots it holds tokens for as one item; when the tokens run out midway it
// waits for the guest to return some and pushes the rest as further items.
// Every item of one call carries the same run stamp, so the guest can rejoin
// them into one window.
func (d *Daemon) fillSlots(p *sim.Proc, tr *trace.Trace, s data.Slice, last bool) {
	if stall, ok := d.faults.ShouldDelay(faults.RingStall); ok {
		// Ring stall: the guest stops draining for a while. Once every slot
		// token is in use, the daemon blocks in take — the ring's natural
		// backpressure — until the guest resumes.
		tr.Event(trace.LayerRing, "fault:ring-stall", 0)
		p.Sleep(stall)
	}
	if hold, ok := d.faults.ShouldDelay(faults.RingSlotHeld); ok {
		// Slot spinlock held by the guest: unlike a stall, the daemon burns
		// CPU spinning on the lock, then waits out the hold.
		tr.Event(trace.LayerRing, "fault:slot-held", 0)
		d.thread.RunT(p, slotHeldSpinCycles, metrics.TagOthers, tr)
		p.Sleep(hold)
	}
	slots := d.ring.slotsFor(s.Len())
	d.thread.RunT(p, slotLockCycles*slots, metrics.TagOthers, tr)
	d.ring.run++
	run := d.ring.run
	for off := int64(0); slots > 0; {
		k := d.ring.take(p, slots)
		slots -= k
		n := min(k*d.cfg.SlotBytes, s.Len()-off)
		d.ring.full.Put(p, ringSlot{s: s.Sub(off, n), run: run, last: last && slots == 0})
		off += n
	}
}

// doorbell signals the guest: eventfd on the daemon side, virtual interrupt
// on the vCPU. A lost doorbell (injected) costs the eventfd write but the
// interrupt only arrives when the guest driver's watchdog poll notices the
// filled slots — doorbellWatchdog of extra latency, never a hang.
func (d *Daemon) doorbell(p *sim.Proc, tr *trace.Trace) {
	d.thread.RunT(p, eventFdCycles, metrics.TagOthers, tr)
	if d.faults.Should(faults.RingDoorbellLost) {
		emit(tr, &d.stats.DoorbellsLost, "doorbell-lost", 1)
		tr.Event(trace.LayerRing, "fault:doorbell-lost", 0)
		d.mgr.env.Schedule(doorbellWatchdog, func() {
			d.vm.VCPU.PostT(guestIRQCycles, metrics.TagOthers, tr, nil)
		})
		return
	}
	d.vm.VCPU.PostT(guestIRQCycles, metrics.TagOthers, tr, nil)
}

// pushError aborts the in-flight read on the guest side.
func (d *Daemon) pushError(p *sim.Proc, tr *trace.Trace) {
	d.pushErrorCode(p, tr, slotFailed)
}

// pushErrorCode aborts the in-flight read with a specific slot code, so
// libvread can surface the matching typed error.
func (d *Daemon) pushErrorCode(p *sim.Proc, tr *trace.Trace, code slotCode) {
	d.ring.take(p, 1)
	d.ring.full.Put(p, ringSlot{code: code, last: true})
	d.doorbell(p, tr)
}
