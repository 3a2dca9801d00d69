package core

import (
	"fmt"

	"vread/internal/cluster"
	"vread/internal/cpusched"
	"vread/internal/data"
	"vread/internal/fsim"
	"vread/internal/metrics"
	"vread/internal/netsim"
	"vread/internal/sim"
	"vread/internal/trace"
)

// VReadPort is the host-terminated port of the daemons' TCP transport.
const VReadPort = 51000

// remoteReq asks a peer host's daemon to open or read a block file. tr rides
// along so the serving host charges its work to the originating request.
type remoteReq struct {
	reqID    int64
	fromHost string
	dn       string
	path     string
	off      int64
	n        int64
	open     bool
	tr       *trace.Trace
}

// remoteChunk is one response unit (data chunk or open reply). off is the
// absolute file offset of a data chunk: the receiving daemon verifies
// contiguity with it, so an injected drop or torn chunk surfaces as a
// detectable gap instead of silently corrupting the ring stream.
type remoteChunk struct {
	reqID  int64
	off    int64
	err    bool
	openOK bool
	size   int64
}

// chunkMsg is what lands on a pending request's queue.
type chunkMsg struct {
	payload data.Slice
	off     int64
	err     bool
	openOK  bool
	size    int64
}

// hostServer is the per-host daemon endpoint serving requests from peers:
// the remote half of Figures 7/8 (the "vRead-daemon" bar on the datanode
// side). It also owns the host's datanode-ID → mount-point hash (§3.2),
// which every daemon on the host reads through, and the host's batch of
// queued dentry refreshes.
type hostServer struct {
	mgr       *Manager
	host      *cluster.Host
	thread    *cpusched.Thread
	reqs      *sim.Queue[remoteReq]
	hr        *hostReader
	mounts    map[string]*fsim.HostMount
	pending   []refreshOp // refreshes waiting for the scheduled drain
	scheduled bool
}

func newHostServer(mgr *Manager, host *cluster.Host) *hostServer {
	s := &hostServer{
		mgr:    mgr,
		host:   host,
		thread: host.CPU.NewThread("vread-server:"+host.Name, DaemonEntity(host.Name)),
		reqs:   sim.NewQueue[remoteReq](mgr.env, 0),
		mounts: make(map[string]*fsim.HostMount),
	}
	s.hr = newHostReader(s, s.thread)
	mgr.env.Go("vread-server:"+host.Name, s.loop)
	return s
}

func (s *hostServer) loop(p *sim.Proc) {
	for {
		req, ok := s.reqs.Get(p)
		if !ok {
			return
		}
		if req.open {
			s.handleOpen(p, req)
		} else {
			s.handleRead(p, req)
		}
	}
}

// handleOpen checks the local mount table and replies with a header chunk.
func (s *hostServer) handleOpen(p *sim.Proc, req remoteReq) {
	sp := req.tr.Begin(trace.LayerRemote, "serve-open")
	s.thread.RunT(p, openCycles, metrics.TagOthers, req.tr)
	reply := remoteChunk{reqID: req.reqID}
	if f, ok := s.hr.lookup(req.dn, req.path); ok {
		reply.openOK = true
		reply.size = f.size
	}
	req.tr.EndSpan(sp, 0)
	s.send(p, req.tr, req.fromHost, data.Slice{C: data.Zero(0)}, reply)
}

// handleRead reads the requested window from the local mount (host page
// cache + disk) and actively pushes chunks to the requesting host — the
// paper's "active model for RDMA data exchange on the datanode side".
func (s *hostServer) handleRead(p *sim.Proc, req remoteReq) {
	f, ok := s.hr.lookup(req.dn, req.path)
	if !ok {
		s.send(p, req.tr, req.fromHost, data.Slice{C: data.Zero(0)}, remoteChunk{reqID: req.reqID, err: true})
		return
	}
	sp := req.tr.Begin(trace.LayerRemote, "serve-read")
	for off := req.off; off < req.off+req.n; {
		chunk := req.off + req.n - off
		if chunk > remoteChunkBytes {
			chunk = remoteChunkBytes
		}
		// A torn chunk arrives short: the receiving daemon's contiguity
		// check catches the gap at the next chunk (or its window timeout,
		// if this was the last) and re-requests from the end of the
		// delivered prefix.
		payload, _, err := s.hr.readChunk(p, req.tr, s.mgr.cfg.Faults, trace.LayerRemote, f, off, chunk)
		if err != nil {
			req.tr.EndSpan(sp, off-req.off)
			s.send(p, req.tr, req.fromHost, data.Slice{C: data.Zero(0)}, remoteChunk{reqID: req.reqID, err: true})
			return
		}
		s.send(p, req.tr, req.fromHost, payload, remoteChunk{reqID: req.reqID, off: off})
		off += chunk
	}
	req.tr.EndSpan(sp, req.n)
}

// send pushes one frame to a peer host over the configured transport.
func (s *hostServer) send(p *sim.Proc, tr *trace.Trace, dstHost string, payload data.Slice, meta remoteChunk) {
	s.mgr.sendFrame(p, s.host.Name, s.thread, dstHost, netsim.Frame{Payload: payload, Meta: meta, Trace: tr})
}

// ---------------------------------------------------------------------------
// Manager-side transport plumbing.

// sendFrame transmits a request or chunk frame daemon-to-daemon over the
// pair's current transport (RDMA, or TCP while a downgrade is active).
func (m *Manager) sendFrame(p *sim.Proc, srcHost string, srcThread *cpusched.Thread, dstHost string, fr netsim.Frame) {
	switch m.transportTo(srcHost, dstHost) {
	case TransportRDMA:
		qp := m.qpFor(srcHost, dstHost)
		qp.PostFrom(srcHost, fr, p.Arm())
		p.Await()
	case TransportTCP:
		// User-level TCP: per-segment syscall + copy cost on the sending
		// daemon, then the host kernel path.
		srcThread.RunT(p, tcpSegCycles, metrics.TagVReadNet, fr.Trace)
		nic := m.fabric().NIC(srcHost)
		nic.SendToHost(dstHost, VReadPort, fr, p.Arm())
		p.Await()
	default:
		panic(fmt.Sprintf("core: unknown transport %v", m.cfg.Transport))
	}
}

// noteRemoteFailureT is noteRemoteFailure plus the once-per-transition trace
// mark the acceptance test asserts on.
func (m *Manager) noteRemoteFailureT(tr *trace.Trace, a, b string) {
	if m.noteRemoteFailure(a, b) {
		tr.Event(trace.LayerDaemon, "transport-downgrade", 0)
	}
}

// qpFor lazily creates the QP connecting two hosts, charging RDMA CPU to
// each side's daemon-server thread.
func (m *Manager) qpFor(a, b string) *netsim.QP {
	key := qpKey(a, b)
	if qp, ok := m.qps[key]; ok {
		return qp
	}
	sa, sb := m.servers[a], m.servers[b]
	if sa == nil || sb == nil {
		panic(fmt.Sprintf("core: missing vRead server on %s or %s", a, b))
	}
	qp := m.fabric().NewQP(
		a, sa.thread, func(fr netsim.Frame) { m.onFrame(a, fr) },
		b, sb.thread, func(fr netsim.Frame) { m.onFrame(b, fr) },
	)
	m.qps[key] = qp
	return qp
}

// hostPair is the unordered pair of two hosts, the key of the per-pair QP
// and downgrade maps: qpKey(a, b) == qpKey(b, a).
type hostPair struct{ lo, hi string }

func qpKey(a, b string) hostPair {
	if b < a {
		a, b = b, a
	}
	return hostPair{lo: a, hi: b}
}

// onFrame demultiplexes an arriving daemon-to-daemon frame on a host.
func (m *Manager) onFrame(host string, fr netsim.Frame) {
	switch meta := fr.Meta.(type) {
	case remoteReq:
		srv := m.servers[host]
		if srv == nil || !srv.reqs.TryPut(meta) {
			panic(fmt.Sprintf("core: no vRead server on %s", host))
		}
	case remoteChunk:
		pend := m.pending[meta.reqID]
		if pend == nil {
			return // request abandoned (timed out and retired) — drop
		}
		pend.TryPut(chunkMsg{payload: fr.Payload, off: meta.off, err: meta.err, openOK: meta.openOK, size: meta.size})
	default:
		panic(fmt.Sprintf("core: unexpected frame meta %T", fr.Meta))
	}
}

// onTCPFrame is the host-port handler for the TCP transport: the receiving
// daemon pays its per-segment user-level cost, then demux.
func (m *Manager) onTCPFrame(host string) netsim.HostHandler {
	return func(fr netsim.Frame) {
		srv := m.servers[host]
		srv.thread.PostT(tcpSegCycles, metrics.TagVReadNet, fr.Trace, func() {
			m.onFrame(host, fr)
		})
	}
}

// remoteOpen sends an open probe to the peer host and waits for the reply.
func (m *Manager) remoteOpen(p *sim.Proc, d *Daemon, dnHost string, req ringReq) openResult {
	id, pend := m.remoteRequest(p, d, dnHost, remoteReq{dn: req.dn, path: req.path, open: true, tr: req.tr})
	defer m.finishRemote(id)
	msg, ok := pend.GetTimeout(p, openTimeout)
	if !ok {
		// No reply at all: treat the transport as suspect so subsequent
		// reads to that host start on the TCP fallback.
		m.noteRemoteFailureT(req.tr, d.host.Name, dnHost)
		return openResult{}
	}
	if msg.err {
		return openResult{}
	}
	return openResult{ok: msg.openOK, size: msg.size}
}

// remoteRequest sends req from d's host to the peer host's server under a
// fresh request id, and returns the id and the queue its replies arrive on.
// The caller must call finishRemote with the id when done.
func (m *Manager) remoteRequest(p *sim.Proc, d *Daemon, dnHost string, req remoteReq) (int64, *sim.Queue[chunkMsg]) {
	m.nextReq++
	req.reqID, req.fromHost = m.nextReq, d.host.Name
	pend := sim.NewQueue[chunkMsg](m.env, 0)
	m.pending[req.reqID] = pend
	m.sendFrame(p, d.host.Name, d.thread, dnHost, netsim.Frame{
		Payload: data.NewSlice(data.Zero(64)),
		Meta:    req,
		Trace:   req.tr,
	})
	return req.reqID, pend
}

// finishRemote retires a pending remote request.
func (m *Manager) finishRemote(id int64) { delete(m.pending, id) }
