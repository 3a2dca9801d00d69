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

// chunkMsg is what lands on the requesting daemon's chunk queue.
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
// queued dentry refreshes. Like a daemon, it serves as a chain of event
// handlers, one request at a time.
type hostServer struct {
	mgr       *Manager
	host      *cluster.Host
	thread    *cpusched.Thread
	reqs      *sim.Queue[remoteReq]
	hr        *hostReader
	out       frameOut
	mounts    map[string]*fsim.HostMount
	pending   []refreshOp // refreshes waiting for the scheduled drain
	scheduled bool
	// st runs the serve chain; req is the request in service, and a read's
	// span, file and cursor follow it.
	st  cpusched.Steps[*hostServer]
	req remoteReq
	sp  int
	f   mountedFile
	off int64
	// recv is onFrame, the host's QP receive handler, bound once.
	recv func(netsim.Frame)
}

// requestPayload is the body of every request frame; replies that carry no
// data send emptyPayload.
var requestPayload, emptyPayload = data.NewSlice(data.Zero(64)), data.Slice{C: data.Zero(0)}

func newHostServer(mgr *Manager, host *cluster.Host) *hostServer {
	s := &hostServer{
		mgr:    mgr,
		host:   host,
		thread: host.CPU.NewThread("vread-server:"+host.Name, DaemonEntity(host.Name)),
		reqs:   sim.NewQueue[remoteReq](mgr.env, 0),
		mounts: make(map[string]*fsim.HostMount),
	}
	s.recv = s.onFrame
	s.hr = newHostReader(s, s.thread)
	s.out.bind(mgr, host.Name, s.thread)
	s.st.Bind(mgr.env, s)
	mgr.env.Schedule(0, s.st.Direct((*hostServer).pop))
	return s
}

func (s *hostServer) pop() {
	req, ok := s.reqs.TryGet()
	if !ok {
		s.reqs.Notify(s.st.Direct((*hostServer).pop))
		return
	}
	s.req = req
	if req.open {
		s.handleOpen(req.tr.Begin(trace.LayerRemote, "serve-open"))
	} else {
		s.handleRead()
	}
}

// handleOpen checks the local mount table under span sp and replies with a
// header chunk.
func (s *hostServer) handleOpen(sp int) {
	s.sp = sp
	s.st.Charge(s.thread, openCycles, metrics.TagOthers, s.req.tr, (*hostServer).openReply)
}

func (s *hostServer) openReply() {
	req := s.req
	reply := remoteChunk{reqID: req.reqID}
	if f, ok := s.hr.lookup(req.dn, req.path); ok {
		reply.openOK, reply.size = true, f.size
	}
	req.tr.EndSpan(s.sp, 0)
	s.send(emptyPayload, reply, (*hostServer).pop)
}

// handleRead reads the requested window from the local mount (host page
// cache + disk) and actively pushes chunks to the requesting host — the
// paper's "active model for RDMA data exchange on the datanode side".
func (s *hostServer) handleRead() {
	req := s.req
	f, ok := s.hr.lookup(req.dn, req.path)
	if !ok {
		s.send(emptyPayload, remoteChunk{reqID: req.reqID, err: true}, (*hostServer).pop)
		return
	}
	s.f, s.off = f, req.off
	s.stream(req.tr.Begin(trace.LayerRemote, "serve-read"))
}

// stream reads and sends the window's chunks under span sp.
func (s *hostServer) stream(sp int) {
	s.sp = sp
	s.readChunk()
}

func (s *hostServer) readChunk() {
	req := s.req
	if s.off >= req.off+req.n {
		req.tr.EndSpan(s.sp, req.n)
		s.pop()
		return
	}
	n := min(req.off+req.n-s.off, remoteChunkBytes)
	s.hr.readChunk(req.tr, s.mgr.cfg.Faults, trace.LayerRemote, s.f, s.off, n, s.st.Direct((*hostServer).chunkRead))
}

// chunkRead sends the chunk read. A torn chunk arrives short: the receiving
// daemon's contiguity check catches the gap at the next chunk (or its
// window timeout, if this was the last) and re-requests from the end of the
// delivered prefix.
//
//lint:hotpath
func (s *hostServer) chunkRead() {
	req, h := s.req, s.hr
	if h.err != nil {
		req.tr.EndSpan(s.sp, s.off-req.off)
		s.send(emptyPayload, remoteChunk{reqID: req.reqID, err: true}, (*hostServer).pop)
		return
	}
	s.send(h.s, remoteChunk{reqID: req.reqID, off: s.off}, (*hostServer).chunkSent)
}

func (s *hostServer) chunkSent() {
	s.off += s.hr.n
	s.readChunk()
}

// send pushes one frame to the requesting host, then continues with then.
// The frame's meta is a record from the manager's free list, which onFrame
// returns once it has read it, as it does a request's.
//
//lint:hotpath
func (s *hostServer) send(payload data.Slice, meta remoteChunk, then func(*hostServer)) {
	c := s.mgr.chunks.Get()
	*c = meta
	s.out.send(s.req.fromHost, netsim.Frame{Payload: payload, Meta: c, Trace: s.req.tr}, s.st.Then(then))
}

// onFrame receives a frame on the server's host.
func (s *hostServer) onFrame(fr netsim.Frame) { s.mgr.onFrame(s.host.Name, fr) }

// ---------------------------------------------------------------------------
// Transport plumbing.

// frameOut is one endpoint's daemon-to-daemon transmit: a daemon sends its
// requests, and a host server its chunks, one frame at a time.
type frameOut struct {
	m      *Manager
	host   string
	thread *cpusched.Thread
	st     cpusched.Steps[*frameOut]
	dst    string
	fr     netsim.Frame
	done   func()
}

func (o *frameOut) bind(m *Manager, host string, thread *cpusched.Thread) {
	o.m, o.host, o.thread = m, host, thread
	o.st.Bind(m.env, o)
}

// send transmits fr to host dst over the pair's current transport (RDMA, or
// TCP while a downgrade is active). done runs at local transmit-complete;
// a Steps.Then completion resumes the chain where a sending Proc would.
func (o *frameOut) send(dst string, fr netsim.Frame, done func()) {
	switch o.m.transportTo(o.host, dst) {
	case TransportRDMA:
		o.m.qpFor(o.host, dst).PostFrom(o.host, fr, done)
	case TransportTCP:
		// User-level TCP: per-segment syscall + copy cost on the sending
		// daemon, then the host kernel path.
		o.dst, o.fr, o.done = dst, fr, done
		o.st.Charge(o.thread, tcpSegCycles, metrics.TagVReadNet, fr.Trace, (*frameOut).sendTCP)
	default:
		panic(fmt.Sprintf("core: unknown transport %v", o.m.cfg.Transport))
	}
}

//lint:hotpath
func (o *frameOut) sendTCP() {
	fr, done := o.fr, o.done
	o.fr, o.done = netsim.Frame{}, nil
	o.m.fabric().NIC(o.host).SendToHost(o.dst, VReadPort, fr, done)
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
	qp := m.fabric().NewQP(a, sa.thread, sa.recv, b, sb.thread, sb.recv)
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
	case *remoteReq:
		req := *meta
		*meta = remoteReq{}
		m.reqs.Put(meta)
		srv := m.servers[host]
		if srv == nil || !srv.reqs.TryPut(req) {
			panic(fmt.Sprintf("core: no vRead server on %s", host))
		}
	case *remoteChunk:
		c := *meta
		m.chunks.Put(meta)
		pend := m.pending[c.reqID]
		if pend == nil {
			return // request abandoned (timed out and retired) — drop
		}
		pend.TryPut(chunkMsg{payload: fr.Payload, off: c.off, err: c.err, openOK: c.openOK, size: c.size})
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

// remoteRequest sends req from the daemon's host to the peer's server
// under a fresh request id, its replies to arrive on d.chunks, and
// continues with then once the frame is sent. finishRemote retires the id.
func (d *Daemon) remoteRequest(req remoteReq, then func(*Daemon)) {
	m := d.mgr
	m.nextReq++
	req.reqID, req.fromHost = m.nextReq, d.host.Name
	d.reqID = req.reqID
	m.pending[req.reqID] = d.chunks
	r := m.reqs.Get()
	*r = req
	d.out.send(d.dnHost, netsim.Frame{Payload: requestPayload, Meta: r, Trace: req.tr}, d.st.Then(then))
}

// finishRemote retires the daemon's remote request: later chunks of its id
// are dropped on arrival, and the ones already queued are discarded, so the
// next request starts on an empty queue.
func (d *Daemon) finishRemote() {
	delete(d.mgr.pending, d.reqID)
	for {
		if _, ok := d.chunks.TryGet(); !ok {
			return
		}
	}
}
