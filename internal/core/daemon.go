package core

import (
	"time"

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
// images (local) or peer daemons (remote). It runs as a chain of event
// handlers that fires the events a serve-loop Proc would: one descriptor
// in service at a time, with its progress in the fields below.
type Daemon struct {
	cfg    Config
	mgr    *Manager
	vm     *cluster.VM // the client VM served
	host   *cluster.Host
	thread *cpusched.Thread
	ring   *ring
	hr     *hostReader
	out    frameOut
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

	// st runs the serve chain. req is the sanitized descriptor in service
	// and verdict sanitizeReq's ruling on it; then is where a slot fill or a
	// doorbell continues.
	st      cpusched.Steps[*Daemon]
	req     ringReq
	verdict reqVerdict
	then    func(*Daemon)
	// A read in progress: its span, the mounted file of a local read, the
	// cursor, the batch or window in flight and the bytes of it delivered,
	// and a remote read's peer host and retries.
	sp             int
	f              mountedFile
	off, want, got int64
	dnHost         string
	retries        int
	// A slot fill in progress: the data and how much of it is pushed, the
	// slot tokens still to take, and the code of an error slot (slotOK for
	// data).
	fill          data.Slice
	filled, slots int64
	last          bool
	code          slotCode
	hold          time.Duration
	// chunks receives the replies to the daemon's one outstanding remote
	// request, reqID; tw is the timed wait on it.
	chunks *sim.Queue[chunkMsg]
	tw     sim.TimedWait
	reqID  int64
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
		chunks: sim.NewQueue[chunkMsg](mgr.env, 0),
	}
	d.out.bind(mgr, vm.Host.Name, thread)
	d.st.Bind(mgr.env, d)
	mgr.env.Schedule(0, d.st.Direct((*Daemon).pop))
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
// sequential readahead. It reads one chunk at a time, as event handlers.
type hostReader struct {
	cfg    Config
	cl     *cluster.Cluster
	host   *cluster.Host
	mounts map[string]*fsim.HostMount // the host's mount map, owned by its server
	thread *cpusched.Thread
	ra     *storage.Readahead
	st     cpusched.Steps[*hostReader]
	issue  func(n int64, done func()) bool // h.readahead, bound once
	// The chunk read in progress: its trace, span, fault plan and fault
	// layer, the file and range, the bytes the host cache missed, and where
	// it continues.
	tr           *trace.Trace
	sp           int
	plan         *faults.Plan
	layer        trace.Layer
	f            mountedFile
	off, n, miss int64
	done         func()
	// The chunk once done runs: its bytes, or its first half with torn
	// set, or err.
	s    data.Slice
	torn bool
	err  error
}

// newHostReader returns a reader over srv's host and mount map that charges
// its work to thread.
func newHostReader(srv *hostServer, thread *cpusched.Thread) *hostReader {
	h := &hostReader{
		cfg: srv.mgr.cfg, cl: srv.mgr.cl, host: srv.host, mounts: srv.mounts, thread: thread,
		ra: storage.NewReadahead(srv.host.CPU.Env(), srv.host.Cache, hostReadaheadBytes, 0),
	}
	h.st.Bind(srv.mgr.env, h)
	h.issue = h.readahead
	return h
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

// readChunk reads [off, off+n) of f: the host-side cost, the bytes from the
// mount, then plan's disk.read.error and disk.read.torn faultpoints, each
// firing marked on tr at layer. done runs with the chunk in h.s, h.torn and
// h.err: an error fails the chunk, and a torn read holds only its first
// half.
func (h *hostReader) readChunk(tr *trace.Trace, plan *faults.Plan, layer trace.Layer, f mountedFile, off, n int64, done func()) {
	h.tr, h.plan, h.layer, h.f, h.off, h.n, h.done = tr, plan, layer, f, off, n, done
	h.read(tr.Begin(trace.LayerHostFS, "host-read"))
}

// read charges the chunk's host-side cost under span sp, first the host
// page cache or, with DirectDiskBypass, the raw device.
func (h *hostReader) read(sp int) {
	h.sp = sp
	if h.cfg.DirectDiskBypass {
		// §6: raw device read — no host cache, triple address translation.
		h.miss = h.n
		h.st.Charge(h.thread, addrTranslateCycles, metrics.TagOthers, h.tr, (*hostReader).submit)
		return
	}
	if _, miss := h.host.Cache.Lookup(h.f.obj, h.off, h.n); miss > 0 {
		h.waitReadahead()
		return
	}
	h.tr.Event(trace.LayerHostFS, "host-cache-hit", h.n)
	h.advance()
}

// waitReadahead waits out every in-flight readahead window overlapping the
// chunk, then reads what the cache still misses from the disk.
func (h *hostReader) waitReadahead() {
	if s := h.ra.Pending(h.f.obj, h.off, h.n); s != nil {
		s.Notify(h.host.CPU.Env(), h.st.Direct((*hostReader).waitReadahead))
		return
	}
	if _, h.miss = h.host.Cache.Lookup(h.f.obj, h.off, h.n); h.miss == 0 {
		h.tr.Event(trace.LayerHostFS, "host-cache-hit", h.n)
		h.advance()
		return
	}
	h.tr.Event(trace.LayerHostFS, "host-cache-miss", h.miss)
	h.submit()
}

func (h *hostReader) submit() {
	h.st.Charge(h.thread, diskSubmitCycles, metrics.TagDiskRead, h.tr, (*hostReader).readDisk)
}

func (h *hostReader) readDisk() {
	h.host.Disk.ReadAsyncT(h.tr, h.miss, h.st.Then((*hostReader).diskDone))
}

func (h *hostReader) diskDone() {
	if h.cfg.DirectDiskBypass {
		h.copyOut()
		return
	}
	h.host.Cache.Insert(h.f.obj, h.off, h.n)
	h.advance()
}

func (h *hostReader) advance() {
	h.ra.Advance(h.f.obj, h.f.size, h.off, h.n, h.issue)
	h.copyOut()
}

// readahead submits one readahead window. Its submit and disk time charge
// to the triggering request's trace: the I/O runs on its behalf even though
// it completes asynchronously.
func (h *hostReader) readahead(n int64, done func()) bool {
	h.thread.PostT(diskSubmitCycles, metrics.TagDiskRead, h.tr, nil)
	h.host.Disk.ReadAsyncT(h.tr, n, done)
	return true
}

func (h *hostReader) copyOut() {
	h.st.Charge(h.thread, loopReadCycles(h.n), metrics.TagLoopDevice, h.tr, (*hostReader).finish)
}

// finish ends the span, reads the chunk's bytes from the mount and
// evaluates the faultpoints.
func (h *hostReader) finish() {
	tr := h.tr
	tr.EndSpan(h.sp, h.n)
	h.s, h.torn = data.Slice{}, false
	s, err := h.f.mnt.ReadAt(h.f.path, h.off, h.n)
	if err == nil && h.plan.Should(faults.DiskReadError) {
		tr.Event(h.layer, "fault:disk-error", 0)
		err = fsim.ErrStale
	}
	switch h.err = err; {
	case err != nil:
	case h.n > 1 && h.plan.Should(faults.DiskReadTorn):
		tr.Event(h.layer, "fault:disk-torn", 0)
		h.s, h.torn = s.Sub(0, h.n/2), true
	default:
		h.s = s
	}
	done := h.done
	h.tr, h.plan, h.done = nil, nil, nil
	done()
}

// Stats returns a copy of the daemon's counters.
func (d *Daemon) Stats() DaemonStats { return d.stats }

// pop heads the serve loop: it takes descriptors off the ring until one
// starts a service. The state machine sits here: a resume kick replays the
// pending set, a quiesced ring captures instead of serving, and everything
// else is sanitized and served.
func (d *Daemon) pop() {
	r := d.ring
	for {
		req, ok := r.reqs.TryGet()
		if !ok {
			r.reqs.Notify(d.st.Direct((*Daemon).pop))
			return
		}
		if req.kind == reqResume {
			// Only the restore path knows the freshly rotated key; a guest
			// forging the kind fails this guard and is dropped like a
			// corrupt doorbell write.
			if req.key == r.key && r.state == ringAttached {
				r.replay, r.pending = r.pending, nil
				d.busy = true
				d.served()
				return
			}
			continue
		}
		if r.state == ringQuiesced {
			r.pending = append(r.pending, req)
			emit(req.tr, &d.stats.QuiesceHolds, "ring-quiesce-hold", 1)
			continue
		}
		d.busy = true
		d.req, d.verdict = d.sanitizeReq(req)
		d.serve()
		return
	}
}

// served ends one descriptor's service. A replay then serves the next
// captured descriptor, in arrival order, re-stamped with the rotated key
// (the restore re-admits them — the old key is dead); a re-quiesce
// mid-replay re-captures the remainder. Otherwise the daemon goes idle and
// pops again.
func (d *Daemon) served() {
	if r := d.ring; len(r.replay) > 0 {
		if r.state == ringAttached {
			pr := r.replay[0]
			r.replay = r.replay[1:]
			pr.key = r.key
			emit(pr.tr, &d.stats.Replayed, "ring-replay", 1)
			d.req, d.verdict = d.sanitizeReq(pr)
			d.serve()
			return
		}
		r.pending = append(r.pending, r.replay...)
		r.replay = nil
	}
	d.busy = false
	d.idle.Broadcast()
	d.pop()
}

// serve wakes on the guest's doorbell, then rejects d.req, crashes under
// it, or dispatches it.
func (d *Daemon) serve() {
	d.st.Charge(d.thread, eventFdCycles, metrics.TagOthers, d.req.tr, (*Daemon).dispatch)
}

func (d *Daemon) dispatch() {
	if d.verdict != reqAccept {
		d.rejectReq()
		return
	}
	d.ring.badStreak = 0
	if d.faults.Should(faults.DaemonCrash) {
		d.crashRestart()
		return
	}
	switch d.req.kind {
	case reqOpen:
		d.handleOpen(d.req.tr.Begin(trace.LayerDaemon, "open"))
	case reqRead:
		d.handleRead()
	}
}

// resume continues with the step a slot fill, doorbell or reply was
// handed.
func (d *Daemon) resume() {
	next := d.then
	d.then = nil
	next(d)
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
func (d *Daemon) rejectReq() {
	req := d.req
	emit(req.tr, &d.stats.RingRejects, "ring-reject", 1)
	code := slotFailed
	switch d.verdict {
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
		d.putReply(openResult{}, (*Daemon).served)
	case req.kind == reqOpen:
		// Junk no-reply open: dropped; no reader is blocked on it.
		d.served()
	default:
		d.pushErrorCode(code, (*Daemon).served)
	}
}

// crashRestart models the daemon dying under a request and supervisord
// bringing it back: the in-flight request fails (the guest sees an error and
// falls back), the host's cached mount metadata is lost — every mount stale
// until vRead_update or a resync — and the ring goes quiet for the restart
// delay.
func (d *Daemon) crashRestart() {
	emit(d.req.tr, &d.stats.Crashes, "crash", 1)
	d.req.tr.Event(trace.LayerDaemon, "fault:daemon-crash", 0)
	d.mgr.invalidateMounts(d.host.Name)
	if d.req.kind == reqOpen {
		d.putReply(openResult{}, (*Daemon).restart)
		return
	}
	d.pushErrorCode(slotFailed, (*Daemon).restart)
}

func (d *Daemon) restart() { d.mgr.env.Schedule(daemonRestartDelay, d.st.Direct((*Daemon).served)) }

// InjectFaults arms a plan on this daemon's faultpoints (per-VM targeting;
// the manager-wide plan is the default).
func (d *Daemon) InjectFaults(plan *faults.Plan) { d.faults = plan }

// handleOpen resolves a block file against the mount hash (local) or a peer
// daemon (remote) under span sp and replies through the ring.
func (d *Daemon) handleOpen(sp int) {
	d.sp = sp
	d.st.Charge(d.thread, openCycles, metrics.TagOthers, d.req.tr, (*Daemon).resolve)
}

func (d *Daemon) resolve() {
	req := d.req
	emit(req.tr, &d.stats.Opens, "open", 1)
	dnHost, known := d.mgr.fabric().HostOf(req.dn)
	switch {
	case !known:
		// Unknown datanode: fall back.
		d.opened(openResult{})
	case dnHost == d.host.Name:
		f, ok := d.hr.lookup(req.dn, req.path)
		d.opened(openResult{ok: ok, size: f.size})
	default:
		d.dnHost = dnHost
		d.remoteRequest(remoteReq{dn: req.dn, path: req.path, open: true, tr: req.tr}, (*Daemon).awaitOpen)
	}
}

func (d *Daemon) awaitOpen() {
	d.chunks.GetTimeoutThen(&d.tw, openTimeout, d.st.Direct((*Daemon).openReplied))
}

// openReplied takes the peer's open reply. No reply at all makes the
// transport suspect, so subsequent reads to that host start on the TCP
// fallback.
func (d *Daemon) openReplied() {
	msg, ok := d.chunks.TryGet()
	d.finishRemote()
	if !ok {
		d.mgr.noteRemoteFailureT(d.req.tr, d.host.Name, d.dnHost)
	}
	if msg.err {
		msg = chunkMsg{}
	}
	d.opened(openResult{ok: msg.openOK, size: msg.size})
}

func (d *Daemon) opened(res openResult) {
	if !res.ok {
		emit(d.req.tr, &d.stats.OpenMisses, "open-miss", 1)
	}
	d.req.tr.EndSpan(d.sp, 0)
	d.putReply(res, (*Daemon).served)
}

// putReply answers an open through its reply queue, then continues with
// then. Reply queues are unbounded, so the put never waits.
func (d *Daemon) putReply(res openResult, then func(*Daemon)) {
	d.req.reply.TryPut(res)
	then(d)
}

// handleRead serves one read request into the ring.
func (d *Daemon) handleRead() {
	dnHost, known := d.mgr.fabric().HostOf(d.req.dn)
	switch {
	case !known:
		d.pushError()
	case dnHost == d.host.Name:
		d.readLocal()
	default:
		d.readRemote(dnHost)
	}
}

// start opens a read's progress at the descriptor's offset, under span sp.
func (d *Daemon) start(sp int) { d.sp, d.off, d.retries = sp, d.req.off, 0 }

// readLocal reads from the loop-mounted image through the host page cache
// (or the raw device with DirectDiskBypass) and fills ring slots, one
// doorbell batch at a time.
func (d *Daemon) readLocal() {
	f, ok := d.hr.lookup(d.req.dn, d.req.path)
	if !ok {
		d.pushError()
		return
	}
	d.f = f
	d.start(d.req.tr.Begin(trace.LayerDaemon, "read-local"))
	d.readBatch()
}

func (d *Daemon) readBatch() {
	req := d.req
	if d.off >= req.off+req.n {
		req.tr.EndSpan(d.sp, req.n)
		d.served()
		return
	}
	d.want = min(req.off+req.n-d.off, int64(d.cfg.EventBatchSlots)*d.cfg.SlotBytes)
	d.hr.readChunk(req.tr, d.faults, trace.LayerDaemon, d.f, d.off, d.want, d.st.Direct((*Daemon).batchRead))
}

func (d *Daemon) batchRead() {
	req, h := d.req, d.hr
	if h.err != nil {
		req.tr.EndSpan(d.sp, d.off-req.off)
		d.pushError()
		return
	}
	// Torn read: a prefix lands in the ring, then the stream ends.
	// libvread's byte-count check turns it into ErrShortRead and retries —
	// never silent truncation.
	d.fillSlots(h.s, h.torn || d.off+d.want == req.off+req.n, (*Daemon).batchFilled)
}

func (d *Daemon) batchFilled() { d.doorbell((*Daemon).batchSignalled) }

func (d *Daemon) batchSignalled() {
	if h := d.hr; h.torn {
		d.req.tr.EndSpan(d.sp, d.off-d.req.off+h.s.Len())
		d.served()
		return
	}
	d.stats.BytesLocal += d.want
	d.off += d.want
	d.readBatch()
}

// readRemote pulls windows of the range from the peer daemon and relays the
// arriving chunks into the ring. With RDMA the payload lands in the SHM
// directly (no local per-byte cost); with TCP the local daemon pays a
// per-segment user-level receive cost (charged by the transport).
//
// Degradation: each chunk wait is bounded by remoteReadTimeout and verified
// contiguous via its offset. A timeout, error chunk, or gap retires the
// window (finishRemote on every path, so a late chunk is dropped), notes
// the transport failure (RDMA pairs downgrade to TCP), and re-requests the
// remainder from the end of the delivered prefix — slots already in the
// ring are never re-sent, so the guest stream stays exact. maxReadRetries
// exhausted → error slot → the guest falls back.
func (d *Daemon) readRemote(dnHost string) {
	d.dnHost = dnHost
	sp := d.req.tr.Begin(trace.LayerDaemon, "read-remote")
	d.req.tr.Annotate(sp, "peer", dnHost)
	d.start(sp)
	d.requestWindow()
}

func (d *Daemon) requestWindow() {
	req := d.req
	if d.off >= req.off+req.n {
		req.tr.EndSpan(d.sp, req.n)
		d.served()
		return
	}
	d.want, d.got = min(req.off+req.n-d.off, d.cfg.RemoteWindowBytes), 0
	d.remoteRequest(remoteReq{dn: req.dn, path: req.path, off: d.off, n: d.want, tr: req.tr}, (*Daemon).awaitChunk)
}

func (d *Daemon) awaitChunk() {
	if d.got >= d.want {
		d.finishRemote()
		d.doorbell((*Daemon).windowDone)
		return
	}
	d.chunks.GetTimeoutThen(&d.tw, remoteReadTimeout, d.st.Direct((*Daemon).remoteChunk))
}

func (d *Daemon) remoteChunk() {
	msg, ok := d.chunks.TryGet()
	if !ok || msg.err || msg.off != d.off+d.got {
		d.windowFailed()
		return
	}
	n := msg.payload.Len()
	last := d.off+d.got+n == d.req.off+d.req.n
	d.got += n
	d.stats.BytesRemote += n
	d.fillSlots(msg.payload, last, (*Daemon).awaitChunk)
}

func (d *Daemon) windowDone() {
	d.off += d.want
	d.requestWindow()
}

func (d *Daemon) windowFailed() {
	req := d.req
	d.finishRemote()
	d.mgr.noteRemoteFailureT(req.tr, d.host.Name, d.dnHost)
	if d.retries++; d.retries > maxReadRetries {
		req.tr.EndSpan(d.sp, d.off+d.got-req.off)
		d.pushError()
		return
	}
	emit(req.tr, &d.stats.RemoteRetries, "remote-retry", 1)
	d.off += d.got // keep the delivered contiguous prefix
	d.requestWindow()
}

// fillSlots splits s across ring slots, paying the per-slot lock cost as
// one batched charge (the per-byte copy into the ring is part of
// loopReadCycles locally, and of the transport cost remotely), then
// continues with then. It pushes the slots it holds tokens for as one item;
// when the tokens run out midway it waits for the guest to return some and
// pushes the rest as further items. Every item of one fill carries the same
// run stamp, so the guest can rejoin them into one window.
func (d *Daemon) fillSlots(s data.Slice, last bool, then func(*Daemon)) {
	d.fill, d.filled, d.last, d.code, d.then = s, 0, last, slotOK, then
	if stall, ok := d.faults.ShouldDelay(faults.RingStall); ok {
		// Ring stall: the guest stops draining for a while. Once every slot
		// token is in use, the daemon waits for tokens — the ring's natural
		// backpressure — until the guest resumes.
		d.req.tr.Event(trace.LayerRing, "fault:ring-stall", 0)
		d.mgr.env.Schedule(stall, d.st.Direct((*Daemon).slotHeld))
		return
	}
	d.slotHeld()
}

// slotHeld evaluates the held-spinlock fault: unlike a stall, the daemon
// burns CPU spinning on the guest's slot lock, then waits out the hold.
func (d *Daemon) slotHeld() {
	hold, ok := d.faults.ShouldDelay(faults.RingSlotHeld)
	if !ok {
		d.lockSlots()
		return
	}
	d.req.tr.Event(trace.LayerRing, "fault:slot-held", 0)
	d.hold = hold
	d.st.Charge(d.thread, slotHeldSpinCycles, metrics.TagOthers, d.req.tr, (*Daemon).waitHold)
}

func (d *Daemon) waitHold() { d.mgr.env.Schedule(d.hold, d.st.Direct((*Daemon).lockSlots)) }

func (d *Daemon) lockSlots() {
	d.slots = d.ring.slotsFor(d.fill.Len())
	d.st.Charge(d.thread, slotLockCycles*d.slots, metrics.TagOthers, d.req.tr, (*Daemon).stampRun)
}

func (d *Daemon) stampRun() {
	d.ring.run++
	d.pushSlots()
}

// pushSlots takes slot tokens, waiting on the guest while none is free,
// and puts the fill's next item, or the error slot; once every slot is in
// the ring it continues, through the doorbell after an error slot.
func (d *Daemon) pushSlots() {
	if d.slots == 0 {
		d.fill = data.Slice{}
		if d.code != slotOK {
			d.doorbell(d.then)
			return
		}
		d.resume()
		return
	}
	k := d.ring.take(d.slots)
	if k == 0 {
		d.ring.freed.Notify(d.mgr.env, d.st.Direct((*Daemon).pushSlots))
		return
	}
	d.slots -= k
	item := ringSlot{code: d.code, last: d.last && d.slots == 0}
	if d.code == slotOK {
		n := min(k*d.cfg.SlotBytes, d.fill.Len()-d.filled)
		item.s, item.run = d.fill.Sub(d.filled, n), d.ring.run
		d.filled += n
	}
	d.ring.full.TryPut(item) // unbounded: the item holds k of the tokens
	d.pushSlots()
}

// doorbell signals the guest, then continues with then: eventfd on the
// daemon side, virtual interrupt on the vCPU.
func (d *Daemon) doorbell(then func(*Daemon)) {
	d.then = then
	d.st.Charge(d.thread, eventFdCycles, metrics.TagOthers, d.req.tr, (*Daemon).interrupt)
}

// interrupt raises the guest's virtual interrupt. A lost doorbell
// (injected) has cost the eventfd write, but the interrupt only arrives when
// the guest driver's watchdog poll notices the filled slots —
// doorbellWatchdog of extra latency, never a hang.
func (d *Daemon) interrupt() {
	tr := d.req.tr
	if d.faults.Should(faults.RingDoorbellLost) {
		emit(tr, &d.stats.DoorbellsLost, "doorbell-lost", 1)
		tr.Event(trace.LayerRing, "fault:doorbell-lost", 0)
		d.mgr.env.Schedule(doorbellWatchdog, func() {
			d.vm.VCPU.PostT(guestIRQCycles, metrics.TagOthers, tr, nil)
		})
	} else {
		d.vm.VCPU.PostT(guestIRQCycles, metrics.TagOthers, tr, nil)
	}
	d.resume()
}

// pushError aborts the in-flight read on the guest side, ending the
// service.
func (d *Daemon) pushError() { d.pushErrorCode(slotFailed, (*Daemon).served) }

// pushErrorCode aborts the in-flight read with a specific slot code, so
// libvread can surface the matching typed error; it rings the doorbell and
// continues with then.
func (d *Daemon) pushErrorCode(code slotCode, then func(*Daemon)) {
	d.fill, d.slots, d.last, d.code, d.then = data.Slice{}, 1, true, code, then
	d.pushSlots()
}
