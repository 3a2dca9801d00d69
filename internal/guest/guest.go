// Package guest models the guest operating system of each VM: the socket
// layer (TCP-like reliable streams over virtio-net) and the file layer
// (guest page cache over virtio-blk), with syscall and user↔kernel copy
// costs charged to the VM's vCPU thread.
//
// Simplifications, documented for honesty:
//   - acknowledgements and window updates are free (they piggyback in real
//     TCP); the data path carries all modeled cost;
//   - connection handshakes are real frame exchanges (SYN / SYN-ACK / RST)
//     so connection setup pays the full virtualized path latency;
//   - in-order delivery is guaranteed by construction (one FIFO path), so
//     there is no retransmission machinery.
package guest

import (
	"errors"
	"fmt"

	"vread/internal/cpusched"
	"vread/internal/data"
	"vread/internal/fsim"
	"vread/internal/metrics"
	"vread/internal/netsim"
	"vread/internal/sim"
	"vread/internal/storage"
	"vread/internal/trace"
	"vread/internal/virtio"
)

// Errors returned by the socket layer.
var (
	ErrRefused = errors.New("guest: connection refused")
	ErrClosed  = errors.New("guest: connection closed")
)

// Guest-kernel costs.
const (
	// syscallCycles per system call.
	syscallCycles = 1500
	// copyCyclesPerKB for user↔kernel copies.
	copyCyclesPerKB = 256
	// tcpTxSegCycles is transmit-path TCP/IP processing per segment.
	tcpTxSegCycles = 4500
	// tcpRxSegCycles is receive-path TCP/IP processing per segment.
	tcpRxSegCycles = 6000
	// sockBufBytes is the per-connection send window.
	sockBufBytes = 1 << 20
	// segmentBytes is the TSO segment size; must not exceed the virtio
	// segment size.
	segmentBytes = 64 << 10
	// readaheadBytes is the guest kernel's sequential readahead window.
	readaheadBytes = 512 << 10
)

func copyCycles(n int64) int64 { return n * copyCyclesPerKB / 1024 }

// Network is the cluster-wide registry that lets kernels resolve peers for
// connection bookkeeping (the data path still rides virtio/netsim).
type Network struct {
	kernels map[string]*Kernel
	nextKid int64
}

// NewNetwork creates an empty registry.
func NewNetwork() *Network {
	return &Network{kernels: make(map[string]*Kernel)}
}

// Kernel returns a registered kernel by VM name, or nil.
func (n *Network) Kernel(vm string) *Kernel { return n.kernels[vm] }

// Kernel is one VM's guest OS.
type Kernel struct {
	env    *sim.Env
	name   string
	id     int64 // dense registration index; the high half of conn IDs
	appTag string
	vcpu   *cpusched.Thread
	net    *virtio.NetDev
	blk    *virtio.BlkDev
	cache  *storage.PageCache
	fs     *fsim.FS
	netw   *Network

	listeners map[int]*sim.Queue[*Conn]
	conns     map[int64]*connEnd
	connSeq   int64
	ra        *storage.Readahead // readahead over the guest page cache
	spare     *FileOp            // the blocking file calls' state, reused
	segs      sim.Pool[segIn]    // arrived segments waiting for receive processing
}

// KernelParams collects the pieces a Kernel is assembled from.
type KernelParams struct {
	Name    string // VM name (also the metrics entity)
	AppTag  string // metrics tag for application-attributed work
	VCPU    *cpusched.Thread
	NetDev  *virtio.NetDev
	BlkDev  *virtio.BlkDev
	Cache   *storage.PageCache // guest page cache
	FS      *fsim.FS           // the VM's disk-image file system
	Network *Network
}

// NewKernel assembles a guest kernel and registers it on the network.
func NewKernel(env *sim.Env, params KernelParams) *Kernel {
	k := &Kernel{
		env:       env,
		name:      params.Name,
		appTag:    params.AppTag,
		vcpu:      params.VCPU,
		net:       params.NetDev,
		blk:       params.BlkDev,
		cache:     params.Cache,
		fs:        params.FS,
		netw:      params.Network,
		listeners: make(map[int]*sim.Queue[*Conn]),
		conns:     make(map[int64]*connEnd),
	}
	k.ra = storage.NewReadahead(env, k.cache, readaheadBytes, k.blk.MaxRequestBytes())
	if k.appTag == "" {
		k.appTag = metrics.TagClientApp
	}
	if k.net != nil {
		k.net.SetDeliver(k.handleFrame)
	}
	k.id = params.Network.nextKid
	params.Network.nextKid++
	params.Network.kernels[k.name] = k
	return k
}

// Name returns the VM name.
func (k *Kernel) Name() string { return k.name }

// Migrate rebinds the kernel to new virtual hardware after a live
// migration (new vCPU thread and devices on the destination host). The VM
// must be quiesced: no in-flight I/O on the old devices.
func (k *Kernel) Migrate(vcpu *cpusched.Thread, net *virtio.NetDev, blk *virtio.BlkDev) {
	k.vcpu = vcpu
	k.net = net
	k.blk = blk
	if k.net != nil {
		k.net.SetDeliver(k.handleFrame)
	}
}

// VCPU returns the VM's vCPU thread (workloads run compute on it).
func (k *Kernel) VCPU() *cpusched.Thread { return k.vcpu }

// FS returns the VM's file system.
func (k *Kernel) FS() *fsim.FS { return k.fs }

// Env returns the simulation environment.
func (k *Kernel) Env() *sim.Env { return k.env }

// ---------------------------------------------------------------------------
// Socket layer.

type segKind int

const (
	segSYN segKind = iota
	segSYNACK
	segRST
	segData
	segFIN
)

type segMeta struct {
	kind   segKind
	connID int64
	port   int    // SYN only
	srcVM  string // SYN only
}

type connEnd struct {
	kernel       *Kernel
	peerVM       string
	tr           *trace.Trace // request currently attributed to this end
	key          int64        // id<<1 | role; role 0 = dialer, 1 = acceptor
	recvQ        []data.Slice // recvQ[recvHead:] are not yet consumed
	recvHead     int
	recvBytes    int64
	recvSig      sim.Signal
	inflight     int64 // bytes sent, not yet consumed by peer app
	windowSig    sim.Signal
	synSig       sim.Signal
	synOK        bool
	synDone      bool
	remoteClosed bool
	localClosed  bool

	// One send and one receive at a time, in continuation form. dataMeta
	// is the data segments' meta, boxed once.
	send     cpusched.Steps[*connEnd]
	dataMeta any
	tx       virtio.Tx
	frame    netsim.Frame // the segment in flight, then segNext
	segNext  func(*connEnd)
	sendS    data.Slice // what is left to send
	sendErr  error
	sendDone func()
	recv     cpusched.Steps[*connEnd]
	recvN    int64 // bytes wanted
	recvGot  data.Builder
	recvS    data.Slice
	recvOK   bool
	recvDone func()
}

// newEnd creates and registers one end of a connection.
func (k *Kernel) newEnd(peerVM string, tr *trace.Trace, key int64) *connEnd {
	end := &connEnd{kernel: k, peerVM: peerVM, tr: tr, key: key, dataMeta: segMeta{kind: segData, connID: key ^ 1}}
	end.send.Bind(k.env, end)
	end.recv.Bind(k.env, end)
	k.conns[key] = end
	return end
}

// Conn is one end of an established stream.
type Conn struct{ end *connEnd }

// SetTrace attributes subsequent socket work on this end to the request
// trace (nil detaches). The passive end of a connection needs no SetTrace
// calls: it adopts the trace of each arriving segment, which is how a
// datanode's service cycles are charged to the requesting client's trace
// without the server code knowing about tracing at all.
func (c *Conn) SetTrace(tr *trace.Trace) { c.end.tr = tr }

// Trace returns the request currently attributed to this end (the trace of
// the most recent arriving segment, unless SetTrace overrode it).
func (c *Conn) Trace() *trace.Trace { return c.end.tr }

// Listen binds a port and returns the accept queue.
func (k *Kernel) Listen(port int) *Listener {
	if _, ok := k.listeners[port]; ok {
		panic(fmt.Sprintf("guest: port %d already bound on %s", port, k.name))
	}
	q := sim.NewQueue[*Conn](k.env, 0)
	k.listeners[port] = q
	return &Listener{kernel: k, port: port, q: q}
}

// Listener accepts inbound connections on one port.
type Listener struct {
	kernel *Kernel
	port   int
	q      *sim.Queue[*Conn]
}

// Accept blocks until a connection arrives.
func (l *Listener) Accept(p *sim.Proc) (*Conn, bool) {
	return l.q.Get(p)
}

// Close unbinds the port.
func (l *Listener) Close() {
	delete(l.kernel.listeners, l.port)
	l.q.Close()
}

// Dial opens a stream to dstVM:port, paying a full SYN/SYN-ACK exchange
// through the virtualized network path.
func (k *Kernel) Dial(p *sim.Proc, dstVM string, port int) (*Conn, error) {
	return k.DialT(p, nil, dstVM, port)
}

// DialT is Dial with the handshake attributed to a request trace; the new
// connection's active end starts attributed to it.
func (k *Kernel) DialT(p *sim.Proc, tr *trace.Trace, dstVM string, port int) (*Conn, error) {
	if k.netw.Kernel(dstVM) == nil {
		return nil, fmt.Errorf("%w: unknown VM %s", ErrRefused, dstVM)
	}
	// Conn IDs are (kernel id, per-kernel sequence): no cross-LP counter,
	// and the numbering is identical at every shard count.
	k.connSeq++
	id := k.id<<32 | k.connSeq
	end := k.newEnd(dstVM, tr, id<<1)
	sp := tr.Begin(trace.LayerGuest, "dial")
	// The SYN targets the not-yet-existing acceptor end (key id<<1|1).
	end.sendSegment(p, data.NewSlice(data.Zero(64)), segMeta{kind: segSYN, connID: end.key | 1, port: port, srcVM: k.name})
	for !end.synDone {
		end.synSig.Wait(p)
	}
	tr.EndSpan(sp, 0)
	if !end.synOK {
		delete(k.conns, end.key)
		return nil, fmt.Errorf("%w: %s:%d", ErrRefused, dstVM, port)
	}
	return &Conn{end: end}, nil
}

// Send writes the slice to the stream, blocking on the send window and the
// virtio ring. Tags: syscall+user-copy to the app tag, TCP processing to
// "others". It is a thin Proc wrapper over SendThen.
func (c *Conn) Send(p *sim.Proc, s data.Slice) error {
	c.SendThen(s, p.ArmInline())
	p.Await()
	return c.SendErr()
}

// SendThen is Send in continuation form: done runs where Send would have
// returned, and SendErr then returns Send's error.
func (c *Conn) SendThen(s data.Slice, done func()) {
	end := c.end
	end.sendS, end.sendErr, end.sendDone = s, nil, done
	if end.localClosed {
		end.sendErr = ErrClosed
		end.finishSend()
		return
	}
	end.sendNext()
}

// SendErr returns the error of the last SendThen.
func (c *Conn) SendErr() error { return c.end.sendErr }

// sendNext sends the next segment once the window has room for it.
//
//lint:hotpath
func (end *connEnd) sendNext() {
	seg := min(end.sendS.Len(), segmentBytes)
	switch {
	case seg == 0:
		end.finishSend()
	case end.inflight+seg > sockBufBytes && !end.remoteClosed:
		end.windowSig.Notify(end.kernel.env, end.send.Direct((*connEnd).sendNext))
	case end.remoteClosed:
		end.sendErr = ErrClosed // peer went away; stop streaming
		end.finishSend()
	default:
		end.inflight += seg
		end.segment(end.sendS.Sub(0, seg), end.dataMeta, (*connEnd).sentSegment)
	}
}

//lint:hotpath
func (end *connEnd) sentSegment() {
	n := end.frame.Payload.Len()
	end.sendS = end.sendS.Sub(n, end.sendS.Len()-n)
	end.sendNext()
}

//lint:hotpath
func (end *connEnd) finishSend() {
	done := end.sendDone
	end.sendS, end.frame, end.sendDone = data.Slice{}, netsim.Frame{}, nil
	done()
}

// sendSegment is segment for a control segment sent from a Proc.
func (end *connEnd) sendSegment(p *sim.Proc, payload data.Slice, meta segMeta) {
	end.sendDone = p.ArmInline()
	end.segment(payload, meta, (*connEnd).finishSend)
	p.Await()
}

// segment pays the guest transmit path and hands the frame to virtio, then
// continues with next. The frame carries the end's current request trace so
// every downstream hop (vhost, wire, the receiving guest) charges against it.
func (end *connEnd) segment(payload data.Slice, meta any, next func(*connEnd)) {
	k := end.kernel
	end.frame = netsim.Frame{DstVM: end.peerVM, Payload: payload, Meta: meta, Trace: end.tr}
	end.segNext = next
	end.send.Charge(k.vcpu, syscallCycles+copyCycles(payload.Len()), k.appTag, end.tr, (*connEnd).segmentTCP)
}

//lint:hotpath
func (end *connEnd) segmentTCP() {
	end.send.Charge(end.kernel.vcpu, tcpTxSegCycles, metrics.TagOthers, end.frame.Trace, (*connEnd).transmit)
}

//lint:hotpath
func (end *connEnd) transmit() {
	end.kernel.net.TransmitThen(&end.tx, end.frame, end.send.Direct(end.segNext))
}

// RecvFull reads exactly n bytes (or returns ok=false at premature EOF). It
// is a thin Proc wrapper over RecvFullThen.
func (c *Conn) RecvFull(p *sim.Proc, n int64) (data.Slice, bool) {
	c.RecvFullThen(n, p.ArmInline())
	p.Await()
	return c.Received()
}

// RecvFullThen is RecvFull in continuation form: done runs where RecvFull
// would have returned, and Received then returns its results.
func (c *Conn) RecvFullThen(n int64, done func()) { c.end.startRecv(n, done) }

// Received returns the results of the last receive.
func (c *Conn) Received() (data.Slice, bool) {
	s := c.end.recvS
	c.end.recvS = data.Slice{}
	return s, c.end.recvOK
}

func (end *connEnd) startRecv(n int64, done func()) {
	end.recvN, end.recvDone = n, done
	end.recvNext()
}

// recvNext takes up to the wanted bytes once there are any, and repeats
// until it has them all.
func (end *connEnd) recvNext() {
	k := end.kernel
	switch {
	case end.recvGot.Len() >= end.recvN:
		end.finishRecv(end.recvGot.Slice(), true)
		return
	case end.recvBytes == 0 && !end.remoteClosed:
		end.recvSig.Notify(k.env, end.recv.Direct((*connEnd).recvNext))
		return
	case end.recvBytes == 0:
		end.finishRecv(data.Slice{}, false)
		return
	}
	var got int64
	for max := end.recvN - end.recvGot.Len(); got < max && end.recvHead < len(end.recvQ); {
		head := end.recvQ[end.recvHead]
		take := head.Len()
		if take > max-got {
			take = max - got
			end.recvQ[end.recvHead] = head.Sub(take, head.Len()-take)
			head = head.Sub(0, take)
		} else {
			end.recvQ[end.recvHead] = data.Slice{}
			end.recvHead++
		}
		end.recvGot.Add(head)
		got += take
	}
	if end.recvHead == len(end.recvQ) {
		end.recvQ, end.recvHead = end.recvQ[:0], 0
	}
	end.recvBytes -= got
	// Window credit back to the sender (free, as piggybacked acks); a torn
	// down peer has nothing left to credit.
	if peerK := k.netw.Kernel(end.peerVM); peerK != nil {
		peerK.applyCredit(end.key^1, got)
	}
	end.recv.Charge(k.vcpu, syscallCycles+copyCycles(got), k.appTag, end.tr, (*connEnd).recvNext)
}

func (end *connEnd) finishRecv(s data.Slice, ok bool) {
	done := end.recvDone
	end.recvS, end.recvOK, end.recvDone = s, ok, nil
	end.recvGot.Reset()
	done()
}

// applyCredit releases window credit on the sending end; a missing end
// (closed connection) is fine — the credit is moot.
func (k *Kernel) applyCredit(connKey int64, bytes int64) {
	if end, ok := k.conns[connKey]; ok {
		end.inflight -= bytes
		end.windowSig.Broadcast()
	}
}

// Close sends FIN. Reads on the peer drain and then report EOF.
func (c *Conn) Close(p *sim.Proc) {
	end := c.end
	if end.localClosed {
		return
	}
	end.localClosed = true
	end.sendSegment(p, data.Slice{C: data.Zero(0)}, segMeta{kind: segFIN, connID: end.key ^ 1})
}

// segIn is one arrived segment waiting for its receive-path charge: taken
// from the kernel's free list, with its step bound once per record.
type segIn struct {
	k         *Kernel
	fr        netsim.Frame
	meta      segMeta
	processFn func()
}

// handleFrame is the virtio deliver hook: runs in event context after the
// guest IRQ charge; posts receive-path work on the vCPU.
//
//lint:hotpath
func (k *Kernel) handleFrame(fr netsim.Frame) {
	meta, ok := fr.Meta.(segMeta)
	if !ok {
		panic(fmt.Sprintf("guest: %s received non-segment frame", k.name))
	}
	s := k.segs.Get()
	if s.processFn == nil {
		s.processFn = s.process
	}
	s.k, s.fr, s.meta = k, fr, meta
	k.vcpu.PostT(tcpRxSegCycles, metrics.TagOthers, fr.Trace, s.processFn)
}

func (s *segIn) process() {
	k, fr, meta := s.k, s.fr, s.meta
	s.k, s.fr, s.meta = nil, netsim.Frame{}, segMeta{}
	k.segs.Put(s)
	k.processSegment(fr, meta)
}

func (k *Kernel) processSegment(fr netsim.Frame, meta segMeta) {
	switch meta.kind {
	case segSYN:
		k.acceptSYN(fr, meta)
	case segSYNACK, segRST:
		end := k.conns[meta.connID]
		if end == nil {
			return
		}
		end.synOK = meta.kind == segSYNACK
		end.synDone = true
		end.synSig.Broadcast()
	case segData:
		end := k.conns[meta.connID]
		if end == nil {
			return // data after close; drop
		}
		// Adopt the arriving segment's trace: the app work this data causes
		// (Recv copies, the reply it triggers) belongs to that request.
		end.tr = fr.Trace
		if len(end.recvQ) == cap(end.recvQ) && end.recvHead > 0 {
			n := copy(end.recvQ, end.recvQ[end.recvHead:])
			clear(end.recvQ[n:])
			end.recvQ, end.recvHead = end.recvQ[:n], 0
		}
		end.recvQ = append(end.recvQ, fr.Payload)
		end.recvBytes += fr.Payload.Len()
		end.recvSig.Broadcast()
	case segFIN:
		end := k.conns[meta.connID]
		if end == nil {
			return
		}
		end.remoteClosed = true
		end.recvSig.Broadcast()
		end.windowSig.Broadcast() // unblock senders into a dead peer
	}
}

// acceptSYN creates the passive end and replies (SYN-ACK or RST). The reply
// pays the normal transmit path from a zero-delay handler.
func (k *Kernel) acceptSYN(fr netsim.Frame, meta segMeta) {
	q, ok := k.listeners[meta.port]
	if !ok {
		// The reset goes out through a connection end nobody registers.
		rst := &connEnd{kernel: k, peerVM: meta.srcVM, tr: fr.Trace}
		rst.send.Bind(k.env, rst)
		rst.reply(data.Slice{C: data.Zero(0)}, segMeta{kind: segRST, connID: meta.connID ^ 1})
		return
	}
	end := k.newEnd(meta.srcVM, fr.Trace, meta.connID) // SYN targeted this key
	end.reply(data.NewSlice(data.Zero(64)), segMeta{kind: segSYNACK, connID: meta.connID ^ 1})
	q.TryPut(&Conn{end: end})
}

// reply sends a control segment from a zero-delay handler, which nothing
// waits on.
func (end *connEnd) reply(payload data.Slice, meta segMeta) {
	end.kernel.env.Schedule(0, func() {
		end.sendDone = func() {}
		end.segment(payload, meta, (*connEnd).finishSend)
	})
}

// ---------------------------------------------------------------------------
// File layer.

// ReadFileAt reads [off, off+n) of an open file on the VM's disk through
// the guest page cache; misses go to virtio-blk. This is the paper's "local
// read" baseline: 2 copies (device→kernel via the virtqueue, kernel→user
// here). The caller resolved node once, at open, as a descriptor holds its
// inode: a file removed since still reads. Under a request trace tr (nil
// for none) the read becomes one guest-layer span, page-cache hits and
// misses become events, and the virtio-blk round trip charges against the
// request. It is a thin Proc wrapper over ReadFileAtThen.
func (k *Kernel) ReadFileAt(p *sim.Proc, tr *trace.Trace, node *fsim.Inode, off, n int64) (data.Slice, error) {
	op := k.takeOp()
	k.ReadFileAtThen(op, tr, node, off, n, p.ArmInline())
	p.Await()
	k.spare = op
	return op.S, op.Err
}

// AppendFile appends content to the file at path: user→kernel copy,
// page-cache insertion, and asynchronous writeback to virtio-blk. It
// resolves path, then is a thin Proc wrapper over AppendFileThen.
func (k *Kernel) AppendFile(p *sim.Proc, path string, c data.Content) error {
	node, err := k.fs.Stat(path)
	if err != nil {
		k.vcpu.Run(p, syscallCycles+copyCycles(c.Len()), k.appTag)
		return err
	}
	op := k.takeOp()
	k.AppendFileThen(op, node, data.NewSlice(c), p.ArmInline())
	p.Await()
	k.spare = op
	return op.Err
}

// takeOp returns the kernel's spare FileOp, or a new one.
func (k *Kernel) takeOp() (op *FileOp) {
	if op, k.spare = k.spare, nil; op == nil {
		op = new(FileOp)
	}
	return op
}

// FileOp is a ReadFileAt or AppendFile in continuation form, with the
// result in S and Err once done has run; its owner runs one at a time.
type FileOp struct {
	S   data.Slice
	Err error

	k      *Kernel
	st     cpusched.Steps[*FileOp]
	blk    virtio.BlkIO
	issue  func(n int64, done func()) bool // readahead submit, bound once
	tr     *trace.Trace
	sp     int
	node   *fsim.Inode
	off, n int64
	c      data.Slice
	done   func()
}

// start takes one call's arguments; sp is its span, which read ends.
func (op *FileOp) start(k *Kernel, tr *trace.Trace, sp int, node *fsim.Inode, done func()) {
	if op.issue == nil {
		op.st.Bind(k.env, op)
		op.issue = op.readahead
	}
	op.k, op.tr, op.sp, op.node, op.done, op.S = k, tr, sp, node, done, data.Slice{}
}

// readahead submits one readahead window of the file to the disk.
func (op *FileOp) readahead(n int64, done func()) bool { return op.k.blk.TryReadAsyncT(op.tr, n, done) }

// ReadFileAtThen is ReadFileAt in continuation form: done runs where
// ReadFileAt would have returned, with the result in op.S and op.Err.
func (k *Kernel) ReadFileAtThen(op *FileOp, tr *trace.Trace, node *fsim.Inode, off, n int64, done func()) {
	sp := tr.Begin(trace.LayerGuest, "file-read")
	op.start(k, tr, sp, node, done)
	op.off, op.n = off, n
	op.st.Charge(k.vcpu, syscallCycles, k.appTag, tr, (*FileOp).cached)
}

// cached looks the range up in the page cache.
//
//lint:hotpath
func (op *FileOp) cached() {
	hit, miss := op.k.cache.Lookup(int64(op.node.Ino()), op.off, op.n)
	if hit > 0 {
		op.tr.Event(trace.LayerGuest, "page-cache-hit", hit)
	}
	if miss > 0 {
		op.tr.Event(trace.LayerGuest, "page-cache-miss", miss)
		op.miss()
		return
	}
	op.advance()
}

// miss waits for any overlapping in-flight readahead before touching the
// device itself.
//
//lint:hotpath
func (op *FileOp) miss() {
	k, obj := op.k, int64(op.node.Ino())
	if s := k.ra.Pending(obj, op.off, op.n); s != nil {
		s.Notify(k.env, op.st.Direct((*FileOp).miss))
		return
	}
	if _, miss := k.cache.Lookup(obj, op.off, op.n); miss > 0 {
		k.blk.Transfer(&op.blk, op.tr, miss, false, op.st.Direct((*FileOp).fill))
		return
	}
	op.advance()
}

//lint:hotpath
func (op *FileOp) fill() {
	op.k.cache.Insert(int64(op.node.Ino()), op.off, op.n)
	op.advance()
}

func (op *FileOp) advance() {
	k := op.k
	k.ra.Advance(int64(op.node.Ino()), op.node.Size(), op.off, op.n, op.issue)
	op.st.Charge(k.vcpu, copyCycles(op.n), k.appTag, op.tr, (*FileOp).read)
}

func (op *FileOp) read() {
	op.S, op.Err = fsim.ReadNode(op.node, op.off, op.n)
	op.tr.EndSpan(op.sp, op.n)
	op.finish(op.Err)
}

func (op *FileOp) finish(err error) {
	done := op.done
	op.Err, op.tr, op.node, op.c, op.done = err, nil, nil, data.Slice{}, nil
	done()
}

// AppendFileThen appends a window to an open file in continuation form:
// done runs where AppendFile would have returned, with its error in op.Err.
func (k *Kernel) AppendFileThen(op *FileOp, node *fsim.Inode, c data.Slice, done func()) {
	op.start(k, nil, -1, node, done)
	op.c = c
	op.st.Charge(k.vcpu, syscallCycles+copyCycles(c.Len()), k.appTag, nil, (*FileOp).append)
}

func (op *FileOp) append() {
	k, node, n := op.k, op.node, op.c.Len()
	oldSize := node.Size()
	if err := fsim.AppendNode(node, op.c); err != nil {
		op.finish(err)
		return
	}
	k.cache.Insert(int64(node.Ino()), oldSize, n)
	k.blk.Transfer(&op.blk, nil, n, true, op.st.Direct((*FileOp).appended))
}

//lint:hotpath
func (op *FileOp) appended() { op.finish(nil) }

// CreateFile creates an empty file (metadata only).
func (k *Kernel) CreateFile(p *sim.Proc, path string) error {
	k.vcpu.Run(p, syscallCycles, k.appTag)
	_, err := k.fs.Create(path)
	return err
}

// RemoveFile deletes a file.
func (k *Kernel) RemoveFile(p *sim.Proc, path string) error {
	k.vcpu.Run(p, syscallCycles, k.appTag)
	node, err := k.fs.Stat(path)
	if err != nil {
		return err
	}
	k.cache.InvalidateObject(int64(node.Ino()))
	return k.fs.Remove(path)
}

// DropCaches empties the guest page cache (the experiment's
// /proc/sys/vm/drop_caches between cold-read runs) and resets readahead
// tracking.
func (k *Kernel) DropCaches() {
	k.cache.DropAll()
	k.ra.Drop()
}
