// Package netsim models the physical network of the testbed: per-host NICs
// feeding a non-blocking 10 Gbps LAN switch, host-kernel receive processing
// (softirq), and RDMA-over-Converged-Ethernet queue pairs between hosts.
//
// Frames are opaque to the network: virtio-net (inter-VM traffic), the vRead
// daemons' TCP transport, and RDMA verbs all ride the same NIC pacing, so
// competing flows share wire bandwidth the way the paper's single 10 Gbps
// port does.
package netsim

import (
	"fmt"
	"time"

	"vread/internal/cpusched"
	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/metrics"
	"vread/internal/sim"
	"vread/internal/trace"
)

// Network costs of the paper's testbed: 10 Gbps LAN, RoCE-capable NICs.
const (
	// bandwidth of each NIC port in bytes/second (10 Gbps).
	bandwidth = 1_250_000_000
	// softirqFrameCycles is host-kernel receive processing per frame.
	softirqFrameCycles = 4000
	// rdmaPostCycles is the CPU cost of posting one RDMA work request.
	rdmaPostCycles = 1200
	// rdmaCompleteCycles is the CPU cost of reaping one completion.
	rdmaCompleteCycles = 800
)

// Config holds network latencies. Zero values select the paper's testbed.
type Config struct {
	// Latency is the one-way wire+switch delay. Default 20µs.
	Latency time.Duration
	// RDMALatency is the hardware-offloaded one-way latency. Default 8µs.
	RDMALatency time.Duration
}

func (c Config) withDefaults() Config {
	if c.Latency == 0 {
		c.Latency = 20 * time.Microsecond
	}
	if c.RDMALatency == 0 {
		c.RDMALatency = 8 * time.Microsecond
	}
	return c
}

// Lookahead returns the minimum latency of any cross-host interaction the
// fabric can carry — the conservative-lookahead window for the sharded
// event engine (sim/shard). No frame, RDMA op included, reaches another
// host in less than this.
func (c Config) Lookahead() time.Duration {
	c = c.withDefaults()
	if c.RDMALatency < c.Latency {
		return c.RDMALatency
	}
	return c.Latency
}

// Frame is one unit on the wire: a TSO-sized guest segment, a daemon TCP
// segment, or an RDMA transfer chunk.
type Frame struct {
	SrcHost string
	DstHost string
	DstVM   string // "" for host-terminated traffic (daemon TCP, RDMA)
	Payload data.Slice
	Meta    interface{}
	// Trace is the request this frame is carried for (nil when untraced).
	// Every hop — NIC pacing, softirq, vhost, RDMA completion — charges its
	// cycles against it, so a request's journey across hosts stays one
	// stream.
	Trace *trace.Trace
}

// Endpoint receives frames addressed to a VM on a host. virtio.NetDev
// implements it.
type Endpoint interface {
	// DeliverFromWire is invoked in event context on the *receiving host*
	// after NIC+softirq processing; the endpoint charges its own vhost-copy
	// and guest costs.
	DeliverFromWire(fr Frame)
}

// HostHandler receives host-terminated frames (the vRead daemon's TCP
// transport).
type HostHandler func(fr Frame)

// DefaultPartitionWindow is how long a fired domain.partition fault keeps
// the two domains severed when the rule carries no delay= duration.
const DefaultPartitionWindow = 10 * time.Millisecond

// Fabric is the LAN: a registry of hosts and VM endpoints plus the switch.
//
// A fabric runs in one of two clock regimes. In the classic single-env
// regime every NIC shares the fabric's Env and frames schedule directly. In
// the sharded regime each host's NIC lives on its own Env (AddHostOn) and a
// frame whose source and destination Envs differ is handed to the
// interconnect hook (SetInterconnect) — the sharded engine's cross-LP
// mailbox — instead of being scheduled locally. Everything the receive side
// does (softirq charge, handler) runs inside the delivered closure on the
// destination Env. VM endpoints are single-env: a sharded cluster registers
// none, so only host-terminated frames cross the interconnect.
type Fabric struct {
	env        *sim.Env
	cfg        Config
	nics       map[string]*NIC
	vms        map[string]vmReg // VM name -> host and endpoint
	ports      map[hostPort]HostHandler
	locs       map[string]hostLoc
	down       map[string]bool
	partitions map[domPair]time.Duration // severed-until instant per domain pair
	faults     *faults.Plan
	xconnect   func(src, dst string, delay time.Duration, deliver func())
	qps        sim.Pool[QP] // closed QPs; RDMA endpoints share one Env
}

type vmReg struct {
	host string
	ep   Endpoint
}

type hostPort struct {
	host string
	port int
}

type hostLoc struct {
	rack   string
	domain string
}

// domPair is an unordered domain pair (normalized a <= b).
type domPair struct {
	a, b string
}

func pairOf(d1, d2 string) domPair {
	if d1 > d2 {
		d1, d2 = d2, d1
	}
	return domPair{d1, d2}
}

// NewFabric creates an empty LAN.
func NewFabric(env *sim.Env, cfg Config) *Fabric {
	return &Fabric{
		env:        env,
		cfg:        cfg.withDefaults(),
		nics:       make(map[string]*NIC),
		vms:        make(map[string]vmReg),
		ports:      make(map[hostPort]HostHandler),
		locs:       make(map[string]hostLoc),
		down:       make(map[string]bool),
		partitions: make(map[domPair]time.Duration),
	}
}

// InjectFaults arms the network faultpoints from plan: net.frame.delay on
// every transmit, net.frame.drop on host-terminated frames (the vRead
// daemons' TCP transport, which carries its own timeout/retry — guest TCP
// has no retransmit model, so dropping inter-VM frames would simulate a
// kernel bug rather than a network fault), rdma.qp.teardown per posted
// work request, and domain.partition per inter-domain host/RDMA frame (a
// firing severs the two fault domains for the rule's delay window). A nil
// plan disables injection.
func (f *Fabric) InjectFaults(plan *faults.Plan) { f.faults = plan }

// SetInterconnect installs the cross-Env frame handoff used when source and
// destination NICs live on different Envs. delay is always at least the
// config's Lookahead. Single-env fabrics never invoke it.
func (f *Fabric) SetInterconnect(fn func(src, dst string, delay time.Duration, deliver func())) {
	f.xconnect = fn
}

// envFor returns the Env frames terminating at host run on — in the sharded
// regime, possibly another LP's engine, reached only through deliverOn.
func (f *Fabric) envFor(host string) *sim.Env {
	if nic, ok := f.nics[host]; ok {
		return nic.env
	}
	return f.env
}

// deliverOn schedules fn after delay on dst's Env: directly when dst shares
// src's Env, through the interconnect otherwise.
func (f *Fabric) deliverOn(srcEnv *sim.Env, src, dst string, delay time.Duration, fn func()) {
	dstEnv := f.envFor(dst)
	if dstEnv == srcEnv {
		srcEnv.Schedule(delay, fn)
		return
	}
	if f.xconnect == nil {
		panic(fmt.Sprintf("netsim: hosts %q and %q live on different Envs and no interconnect is set", src, dst))
	}
	f.xconnect(src, dst, delay, fn)
}

// AddHost registers a host NIC. softirq is the host thread that receive
// processing is charged to; entity/tag attribution follows that thread.
func (f *Fabric) AddHost(name string, softirq *cpusched.Thread) *NIC {
	return f.AddHostOn(name, softirq, f.env)
}

// AddHostOn registers a host NIC that lives on its own Env — the sharded
// regime, one Env per simulated host. The softirq thread (and everything
// else the host touches from event context) must run on the same Env.
func (f *Fabric) AddHostOn(name string, softirq *cpusched.Thread, env *sim.Env) *NIC {
	if _, ok := f.nics[name]; ok {
		panic(fmt.Sprintf("netsim: duplicate host %q", name))
	}
	nic := &NIC{fabric: f, host: name, softirq: softirq, env: env}
	f.nics[name] = nic
	return nic
}

// NIC returns the registered NIC for host, or nil.
func (f *Fabric) NIC(host string) *NIC { return f.nics[host] }

// SetHostLocation records a host's rack and fault domain. Hosts with no
// recorded location (or an empty domain) are exempt from domain partitions.
func (f *Fabric) SetHostLocation(host, rack, domain string) {
	f.locs[host] = hostLoc{rack: rack, domain: domain}
}

// RackOf returns the recorded rack of a host.
func (f *Fabric) RackOf(host string) (string, bool) {
	l, ok := f.locs[host]
	return l.rack, ok
}

// DomainOf returns the recorded fault domain of a host.
func (f *Fabric) DomainOf(host string) (string, bool) {
	l, ok := f.locs[host]
	return l.domain, ok
}

// SetHostDown marks a host dark (rack kill): every frame to or from it —
// guest, daemon TCP, or RDMA — is dropped in flight. Spans still close at
// the would-have-arrived instant, so tracing invariants hold. A dark host
// stays dark for the rest of the run.
func (f *Fabric) SetHostDown(host string) { f.down[host] = true }

// domainBlocked reports whether an inter-domain host/RDMA frame between the
// two hosts must be dropped. Inside an active partition window every such
// frame drops without drawing randomness; otherwise the domain.partition
// faultpoint is evaluated, and a firing severs the pair for the rule's
// delay= window (DefaultPartitionWindow when unset). Recovery is lazy: the
// window simply expires, no timers.
func (f *Fabric) domainBlocked(fr *Frame, src, dst string) bool {
	ls, okS := f.locs[src]
	ld, okD := f.locs[dst]
	if !okS || !okD || ls.domain == "" || ld.domain == "" || ls.domain == ld.domain {
		return false
	}
	pair := pairOf(ls.domain, ld.domain)
	now := f.envFor(src).Now()
	if until, ok := f.partitions[pair]; ok && now < until {
		fr.Trace.Event(trace.LayerNet, "fault:domain-partition-drop", 0)
		return true
	}
	// The severed-until map is fabric-global; domain partitions are a
	// single-env feature (sharded runs leave fault domains unset, so this
	// path is never reached from a concurrently advancing host).
	if window, ok := f.faults.ShouldDelay(faults.DomainPartition); ok {
		if window <= 0 {
			window = DefaultPartitionWindow
		}
		f.partitions[pair] = now + window
		fr.Trace.Event(trace.LayerNet, "fault:domain-partition-drop", 0)
		return true
	}
	return false
}

// RegisterVM binds a VM name to its host and endpoint.
func (f *Fabric) RegisterVM(vm, host string, ep Endpoint) {
	if _, ok := f.vms[vm]; ok {
		panic(fmt.Sprintf("netsim: duplicate VM %q", vm))
	}
	f.vms[vm] = vmReg{host: host, ep: ep}
}

// UnregisterVM removes a VM binding (live migration support).
func (f *Fabric) UnregisterVM(vm string) { delete(f.vms, vm) }

// HostOf returns the host a VM currently runs on.
func (f *Fabric) HostOf(vm string) (string, bool) {
	r, ok := f.vms[vm]
	return r.host, ok
}

// Locate returns the host a VM currently runs on and its endpoint: the one
// lookup a frame's sender needs to route it.
func (f *Fabric) Locate(vm string) (host string, ep Endpoint, ok bool) {
	r, ok := f.vms[vm]
	return r.host, r.ep, ok
}

// BindHostPort registers a host-terminated service (the vRead daemon's TCP
// listener).
func (f *Fabric) BindHostPort(host string, port int, h HostHandler) {
	key := hostPort{host, port}
	if _, ok := f.ports[key]; ok {
		panic(fmt.Sprintf("netsim: port %d already bound on %s", port, host))
	}
	f.ports[key] = h
}

// NIC is one host's 10 Gbps port with FIFO egress pacing.
type NIC struct {
	fabric    *Fabric
	host      string
	env       *sim.Env
	softirq   *cpusched.Thread
	busyUntil time.Duration
	txFrames  int64
	frames    sim.Pool[wireFrame] // frames this NIC sends, back from their last step
	ops       sim.Pool[rdmaOp]    // RDMA work requests posted from this host
}

// TxFrames returns total frames transmitted.
func (n *NIC) TxFrames() int64 { return n.txFrames }

// wireFrame is one frame in flight from a NIC: taken from the sending NIC's
// free list, with its arrival and delivery steps bound once per record, as
// Proc.wake is. Its last step returns it, unless the frame crossed to
// another Env, where it is left to the garbage collector.
type wireFrame struct {
	home *NIC // free list to return to; nil once the frame crossed Envs
	fr   Frame
	sp   int
	// Where an arriving frame goes; all nil for a frame dropped in flight.
	dst *NIC        // receiving NIC, whose softirq charges ep's or h's frame
	ep  Endpoint    // SendToVM
	h   HostHandler // SendToHost
	dma func(Frame) // SendDMA

	arriveFn, deliverFn func()
}

// frame returns a record for fr from n's free list.
func (n *NIC) frame(fr Frame) *wireFrame {
	w := n.frames.Get()
	if w.arriveFn == nil {
		w.arriveFn, w.deliverFn = w.arrive, w.deliver
	}
	w.home, w.fr = n, fr
	return w
}

// delivers reports whether the frame reaches a destination on arrival.
func (w *wireFrame) delivers() bool { return w.ep != nil || w.h != nil || w.dma != nil }

// SendToVM transmits a frame to a VM on another host. After wire time, the
// receiving host's softirq processing runs, then the VM endpoint's
// DeliverFromWire. onSent (may be nil) fires when the frame leaves this NIC
// (transmit-complete, for sender-side pacing).
//
//lint:hotpath
func (n *NIC) SendToVM(fr Frame, onSent func()) {
	reg, ok := n.fabric.vms[fr.DstVM]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown destination VM %q", fr.DstVM))
	}
	fr.SrcHost = n.host
	fr.DstHost = reg.host
	w := n.frame(fr)
	w.dst, w.ep = n.fabric.nics[reg.host], reg.ep
	n.transmit(w, onSent)
}

// SendToHost transmits a host-terminated frame (daemon TCP). Receive
// processing is charged to the receiving host's softirq thread with the
// vread-net tag, then the bound handler runs.
func (n *NIC) SendToHost(dstHost string, port int, fr Frame, onSent func()) {
	h, ok := n.fabric.ports[hostPort{dstHost, port}]
	if !ok {
		panic(fmt.Sprintf("netsim: no handler on %s:%d", dstHost, port))
	}
	fr.SrcHost = n.host
	fr.DstHost = dstHost
	w := n.frame(fr)
	switch {
	case n.fabric.domainBlocked(&w.fr, n.host, dstHost):
	case n.fabric.faults.Should(faults.NetFrameDrop):
		fr.Trace.Event(trace.LayerNet, "fault:frame-drop", 0)
	default:
		w.dst, w.h = n.fabric.nics[dstHost], h
	}
	n.transmit(w, onSent)
}

// SendDMA transmits a frame fully in hardware (SR-IOV virtual functions):
// NIC pacing and wire latency apply, but no host softirq runs — deliver is
// invoked directly on arrival. Co-located destinations hairpin through the
// NIC's internal switch (same pacing, same latency).
func (n *NIC) SendDMA(fr Frame, onSent func(), deliver func(Frame)) {
	fr.SrcHost = n.host
	w := n.frame(fr)
	w.dma = deliver
	n.transmit(w, onSent)
}

// transmit paces the frame through this NIC and schedules its arrival. A
// frame with no destination was dropped in flight: it still occupies the
// wire and its span still closes (at the instant it would have arrived), it
// just never reaches the destination. Frames touching a down host are
// dropped here, the single chokepoint every send path funnels through.
//
//lint:hotpath
func (n *NIC) transmit(w *wireFrame, onSent func()) {
	fr := &w.fr
	if w.delivers() && (n.fabric.down[fr.SrcHost] || n.fabric.down[fr.DstHost]) {
		fr.Trace.Event(trace.LayerNet, "fault:host-down-drop", 0)
		w.dst, w.ep, w.h, w.dma = nil, nil, nil, nil
	}
	cfg := n.fabric.cfg
	now := n.env.Now()
	start := now
	if n.busyUntil > start {
		start = n.busyUntil
	}
	wire := cfg.Latency
	if extra, ok := n.fabric.faults.ShouldDelay(faults.NetFrameDelay); ok {
		fr.Trace.Event(trace.LayerNet, "fault:frame-delay", 0)
		wire += extra
	}
	txTime := time.Duration(float64(fr.Payload.Len()) / float64(bandwidth) * float64(time.Second))
	done := start + txTime
	n.busyUntil = done
	n.txFrames++
	if onSent != nil {
		n.env.Schedule(done-now, onSent)
	}
	n.launch(w, fr.Trace.Begin(trace.LayerNet, "wire"), done-now+wire)
}

// launch sends w, under its wire span sp, to arrive after delay.
func (n *NIC) launch(w *wireFrame, sp int, delay time.Duration) {
	w.sp = sp
	// Dropped frames close their span on the sender's Env — the
	// destination may be down, unregistered, or on another shard, and
	// nothing observable happens there anyway.
	dst := w.fr.DstHost
	if !w.delivers() || dst == "" {
		n.env.Schedule(delay, w.arriveFn)
		return
	}
	if n.fabric.envFor(dst) != n.env {
		w.home = nil // its last step runs on the destination's Env
	}
	n.fabric.deliverOn(n.env, n.host, dst, delay, w.arriveFn)
}

// arrive closes the wire span and hands the frame on: to the receiving
// host's softirq, straight to an SR-IOV peer, or nowhere when it was dropped.
//
//lint:hotpath
func (w *wireFrame) arrive() {
	w.fr.Trace.EndSpan(w.sp, w.fr.Payload.Len())
	switch {
	case w.ep != nil:
		w.dst.softirq.PostT(softirqFrameCycles, metrics.TagVhostNet, w.fr.Trace, w.deliverFn)
	case w.h != nil:
		w.dst.softirq.PostT(softirqFrameCycles, metrics.TagVReadNet, w.fr.Trace, w.deliverFn)
	case w.dma != nil:
		dma, fr := w.dma, w.fr
		w.release()
		dma(fr)
	default:
		w.release()
	}
}

// deliver runs after the receiving host's softirq charge.
//
//lint:hotpath
func (w *wireFrame) deliver() {
	fr, ep, h := w.fr, w.ep, w.h
	w.release()
	if ep != nil {
		ep.DeliverFromWire(fr)
		return
	}
	h(fr)
}

// release drops the record's references and returns it to its sender's
// free list.
func (w *wireFrame) release() {
	home := w.home
	w.home, w.fr, w.dst, w.ep, w.h, w.dma = nil, Frame{}, nil, nil, nil, nil
	if home != nil {
		home.frames.Put(w)
	}
}

// ---------------------------------------------------------------------------
// RDMA (RoCE).

// QP is a reliable-connected RDMA queue pair between two hosts. Work
// requests pay small per-op CPU on the posting thread and are transferred by
// NIC hardware (wire pacing, no softirq, no copies). A QP torn down by an
// injected rdma.qp.teardown fault is broken: it accepts posts (the sender's
// verbs library doesn't learn synchronously) but delivers nothing; the
// caller's timeout is what detects it, as in the paper's RDMA→TCP fallback.
type QP struct {
	fabric  *Fabric
	hostA   string
	hostB   string
	recvA   func(Frame)
	recvB   func(Frame)
	threadA *cpusched.Thread
	threadB *cpusched.Thread
	broken  bool
}

// NewQP connects two hosts. threadX is the thread whose entity RDMA CPU is
// charged to on each side; recvX handles messages arriving at that side.
func (f *Fabric) NewQP(hostA string, threadA *cpusched.Thread, recvA func(Frame),
	hostB string, threadB *cpusched.Thread, recvB func(Frame)) *QP {
	if f.nics[hostA] == nil || f.nics[hostB] == nil {
		panic("netsim: QP hosts must be registered")
	}
	if f.nics[hostA].env != f.nics[hostB].env {
		// A QP's broken flag is one shared structure
		// mutated from both ends; splitting them per side is what a
		// cross-shard QP would need, and nothing needs it yet.
		panic(fmt.Sprintf("netsim: QP between %q and %q crosses Envs; RDMA endpoints must share a shard", hostA, hostB))
	}
	q := f.qps.Get()
	*q = QP{
		fabric: f, hostA: hostA, hostB: hostB,
		recvA: recvA, recvB: recvB, threadA: threadA, threadB: threadB,
	}
	return q
}

// Close returns a QP nobody posts on any more to the fabric, for a later
// NewQP to reuse. Work requests already posted on it complete as usual.
func (q *QP) Close() { q.fabric.qps.Put(q) }

// rdmaOp is one posted work request: taken from the posting NIC's free
// list, with its steps bound once per record. A QP's two hosts share an Env
// (NewQP), so the completion, its last step, always returns it.
type rdmaOp struct {
	nic     *NIC // posting NIC, whose free list takes the record back
	fr      Frame
	sp      int
	dstHost string
	complTh *cpusched.Thread
	recv    func(Frame)
	onSent  func()

	postedFn, arriveFn, completeFn, sentFn func()
}

// PostFrom posts a send/write work request from the given side ("A" side is
// hostA). The posting thread pays rdmaPostCycles; the NIC DMAs the payload
// at wire speed; the remote side pays rdmaCompleteCycles and then its recv
// handler runs. onSent (may be nil) fires at local transmit-complete.
//
//lint:hotpath
func (q *QP) PostFrom(host string, fr Frame, onSent func()) {
	var postTh, complTh *cpusched.Thread
	var recv func(Frame)
	var dstHost string
	switch host {
	case q.hostA:
		postTh, complTh, recv, dstHost = q.threadA, q.threadB, q.recvB, q.hostB
	case q.hostB:
		postTh, complTh, recv, dstHost = q.threadB, q.threadA, q.recvA, q.hostA
	default:
		panic(fmt.Sprintf("netsim: host %q not part of QP", host))
	}
	fr.SrcHost = host
	fr.DstHost = dstHost
	nic := q.fabric.nics[host]
	op := nic.ops.Get()
	if op.postedFn == nil {
		op.postedFn, op.arriveFn, op.completeFn, op.sentFn = op.posted, op.arrive, op.complete, op.sent
	}
	op.nic, op.fr, op.onSent = nic, fr, onSent
	if q.fabric.faults.Should(faults.RDMAQPTeardown) {
		q.broken = true
	}
	unreachable := q.broken
	switch {
	case q.broken:
		fr.Trace.Event(trace.LayerNet, "fault:qp-broken-drop", 0)
	case q.fabric.down[host] || q.fabric.down[dstHost]:
		fr.Trace.Event(trace.LayerNet, "fault:host-down-drop", 0)
		unreachable = true
	case q.fabric.domainBlocked(&op.fr, host, dstHost):
		unreachable = true
	}
	if unreachable {
		// Posting still costs CPU and the sender still sees local
		// transmit-complete — the loss surfaces only at the reader's
		// timeout, never as a synchronous error.
		postTh.PostT(rdmaPostCycles, metrics.TagRDMA, fr.Trace, op.sentFn)
		return
	}
	op.dstHost, op.complTh, op.recv = dstHost, complTh, recv
	op.post(postTh, fr.Trace.Begin(trace.LayerNet, "rdma"))
}

// post pays the posting CPU on th, under the transfer's span sp.
func (op *rdmaOp) post(th *cpusched.Thread, sp int) {
	op.sp = sp
	th.PostT(rdmaPostCycles, metrics.TagRDMA, op.fr.Trace, op.postedFn)
}

// sent completes an unreachable post: only local transmit-complete fires.
//
//lint:hotpath
func (op *rdmaOp) sent() {
	onSent := op.onSent
	op.release()
	if onSent != nil {
		onSent()
	}
}

// posted paces the payload through the posting NIC once the post's CPU is
// paid.
//
//lint:hotpath
func (op *rdmaOp) posted() {
	nic := op.nic
	now := nic.env.Now()
	start := now
	if nic.busyUntil > start {
		start = nic.busyUntil
	}
	txTime := time.Duration(float64(op.fr.Payload.Len()) / float64(bandwidth) * float64(time.Second))
	done := start + txTime
	nic.busyUntil = done
	nic.txFrames++
	if op.onSent != nil {
		nic.env.Schedule(done-now, op.onSent)
	}
	nic.fabric.deliverOn(nic.env, nic.host, op.dstHost, done-now+nic.fabric.cfg.RDMALatency, op.arriveFn)
}

//lint:hotpath
func (op *rdmaOp) arrive() {
	op.complTh.PostT(rdmaCompleteCycles, metrics.TagRDMA, op.fr.Trace, op.completeFn)
}

//lint:hotpath
func (op *rdmaOp) complete() {
	op.fr.Trace.EndSpan(op.sp, op.fr.Payload.Len())
	fr, recv := op.fr, op.recv
	op.release()
	recv(fr)
}

// release drops the record's references and returns it to the posting
// NIC's free list.
func (op *rdmaOp) release() {
	nic := op.nic
	op.nic, op.fr, op.complTh, op.recv, op.onSent = nil, Frame{}, nil, nil, nil
	nic.ops.Put(op)
}
