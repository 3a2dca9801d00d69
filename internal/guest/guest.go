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

// Cache returns the guest page cache.
func (k *Kernel) Cache() *storage.PageCache { return k.cache }

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
	recvQ        []data.Slice
	recvBytes    int64
	recvSig      *sim.Signal
	inflight     int64 // bytes sent, not yet consumed by peer app
	windowSig    *sim.Signal
	synSig       *sim.Signal
	synOK        bool
	synDone      bool
	remoteClosed bool
	localClosed  bool
}

// Conn is one end of an established stream.
type Conn struct{ end *connEnd }

// PeerVM returns the VM name of the other end.
func (c *Conn) PeerVM() string { return c.end.peerVM }

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
	end := &connEnd{
		kernel: k, peerVM: dstVM, tr: tr, key: id << 1,
		recvSig:   sim.NewSignal(k.env),
		windowSig: sim.NewSignal(k.env),
		synSig:    sim.NewSignal(k.env),
	}
	k.conns[end.key] = end
	sp := tr.Begin(trace.LayerGuest, "dial")
	// The SYN targets the not-yet-existing acceptor end (key id<<1|1).
	k.sendSegment(p, tr, dstVM, data.NewSlice(data.Zero(64)), segMeta{kind: segSYN, connID: end.key | 1, port: port, srcVM: k.name})
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
// "others".
func (c *Conn) Send(p *sim.Proc, s data.Slice) error {
	end := c.end
	k := end.kernel
	if end.localClosed {
		return ErrClosed
	}
	for off := int64(0); off < s.Len(); {
		seg := s.Len() - off
		if seg > segmentBytes {
			seg = segmentBytes
		}
		for end.inflight+seg > sockBufBytes && !end.remoteClosed {
			end.windowSig.Wait(p)
		}
		if end.remoteClosed {
			return ErrClosed // peer went away; stop streaming
		}
		end.inflight += seg
		k.sendSegment(p, end.tr, end.peerVM, s.Sub(off, seg), segMeta{kind: segData, connID: end.key ^ 1})
		off += seg
	}
	return nil
}

// sendSegment pays the guest transmit path and hands the frame to virtio.
// The frame carries the request trace so every downstream hop (vhost, wire,
// the receiving guest) charges against it.
func (k *Kernel) sendSegment(p *sim.Proc, tr *trace.Trace, dstVM string, payload data.Slice, meta segMeta) {
	k.vcpu.RunT(p, syscallCycles+copyCycles(payload.Len()), k.appTag, tr)
	k.vcpu.RunT(p, tcpTxSegCycles, metrics.TagOthers, tr)
	k.net.Transmit(p, netsim.Frame{DstVM: dstVM, Payload: payload, Meta: meta, Trace: tr})
}

// Recv returns up to max bytes, blocking until data or EOF. ok is false at
// EOF (peer closed and buffer drained).
func (c *Conn) Recv(p *sim.Proc, max int64) (data.Slice, bool) {
	end := c.end
	k := end.kernel
	for end.recvBytes == 0 && !end.remoteClosed {
		end.recvSig.Wait(p)
	}
	if end.recvBytes == 0 {
		return data.Slice{}, false
	}
	// The first piece taken is held as it is; a Concat is built only when a
	// second piece joins it, so a read one piece covers returns that piece.
	var out data.Slice
	var parts data.Concat
	var got int64
	for got < max && len(end.recvQ) > 0 {
		head := end.recvQ[0]
		take := head.Len()
		if take > max-got {
			take = max - got
			end.recvQ[0] = head.Sub(take, head.Len()-take)
			head = head.Sub(0, take)
		} else {
			end.recvQ = end.recvQ[1:]
		}
		switch {
		case got == 0:
			out = head
		case parts == nil:
			parts = data.Concat{out.Content(), head.Content()}
		default:
			parts = append(parts, head.Content())
		}
		got += take
	}
	if parts != nil {
		out = data.Slice{C: parts, N: got}
	}
	end.recvBytes -= got
	// Window credit back to the sender (free, as piggybacked acks); a torn
	// down peer has nothing left to credit.
	if peerK := k.netw.Kernel(end.peerVM); peerK != nil {
		peerK.applyCredit(end.key^1, got)
	}
	k.vcpu.RunT(p, syscallCycles+copyCycles(got), k.appTag, end.tr)
	return out, true
}

// applyCredit releases window credit on the sending end; a missing end
// (closed connection) is fine — the credit is moot.
func (k *Kernel) applyCredit(connKey int64, bytes int64) {
	if end, ok := k.conns[connKey]; ok {
		end.inflight -= bytes
		end.windowSig.Broadcast()
	}
}

// RecvFull reads exactly n bytes (or returns ok=false at premature EOF).
func (c *Conn) RecvFull(p *sim.Proc, n int64) (data.Slice, bool) {
	var parts data.Concat
	var got int64
	for got < n {
		s, ok := c.Recv(p, n-got)
		if !ok {
			return data.Slice{}, false
		}
		if s.Len() == n {
			return s, true // one Recv covered the whole read
		}
		parts = append(parts, s.Content())
		got += s.Len()
	}
	return data.Slice{C: parts, N: got}, true
}

// Close sends FIN. Reads on the peer drain and then report EOF.
func (c *Conn) Close(p *sim.Proc) {
	end := c.end
	if end.localClosed {
		return
	}
	end.localClosed = true
	end.kernel.sendSegment(p, end.tr, end.peerVM, data.Slice{C: data.Zero(0)}, segMeta{kind: segFIN, connID: end.key ^ 1})
}

// handleFrame is the virtio deliver hook: runs in event context after the
// guest IRQ charge; posts receive-path work on the vCPU.
func (k *Kernel) handleFrame(fr netsim.Frame) {
	meta, ok := fr.Meta.(segMeta)
	if !ok {
		panic(fmt.Sprintf("guest: %s received non-segment frame", k.name))
	}
	k.vcpu.PostT(tcpRxSegCycles, metrics.TagOthers, fr.Trace, func() {
		k.processSegment(fr, meta)
	})
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
// is sent by a short-lived kernel process so it pays the normal path.
func (k *Kernel) acceptSYN(fr netsim.Frame, meta segMeta) {
	q, ok := k.listeners[meta.port]
	if !ok {
		k.env.Go(fmt.Sprintf("%s:rst", k.name), func(p *sim.Proc) {
			k.sendSegment(p, fr.Trace, meta.srcVM, data.Slice{C: data.Zero(0)}, segMeta{kind: segRST, connID: meta.connID ^ 1})
		})
		return
	}
	end := &connEnd{
		kernel: k, peerVM: meta.srcVM, tr: fr.Trace, key: meta.connID, // SYN targeted this key
		recvSig:   sim.NewSignal(k.env),
		windowSig: sim.NewSignal(k.env),
		synSig:    sim.NewSignal(k.env),
	}
	k.conns[end.key] = end
	k.env.Go(fmt.Sprintf("%s:synack", k.name), func(p *sim.Proc) {
		k.sendSegment(p, fr.Trace, meta.srcVM, data.NewSlice(data.Zero(64)), segMeta{kind: segSYNACK, connID: meta.connID ^ 1})
	})
	q.TryPut(&Conn{end: end})
}

// ---------------------------------------------------------------------------
// File layer.

// ReadFileAt reads [off, off+n) of a file on the VM's disk through the guest
// page cache; misses go to virtio-blk. This is the paper's "local read"
// baseline: 2 copies (device→kernel via the virtqueue, kernel→user here).
func (k *Kernel) ReadFileAt(p *sim.Proc, path string, off, n int64) (data.Slice, error) {
	return k.ReadFileAtT(p, nil, path, off, n)
}

// ReadFileAtT is ReadFileAt attributed to a request trace: the read becomes
// one guest-layer span, page-cache hits and misses become events, and the
// virtio-blk round trip charges against the request.
func (k *Kernel) ReadFileAtT(p *sim.Proc, tr *trace.Trace, path string, off, n int64) (data.Slice, error) {
	sp := tr.Begin(trace.LayerGuest, "file-read")
	k.vcpu.RunT(p, syscallCycles, k.appTag, tr)
	node, err := k.fs.Stat(path)
	if err != nil {
		tr.EndSpan(sp, 0)
		return data.Slice{}, err
	}
	obj := int64(node.Ino())
	hit, miss := k.cache.Lookup(obj, off, n)
	if hit > 0 {
		tr.Event(trace.LayerGuest, "page-cache-hit", hit)
	}
	if miss > 0 {
		tr.Event(trace.LayerGuest, "page-cache-miss", miss)
		// Wait for any overlapping in-flight readahead before touching the
		// device ourselves.
		k.ra.Wait(p, obj, off, n)
		if _, miss = k.cache.Lookup(obj, off, n); miss > 0 {
			k.blk.ReadT(p, tr, miss)
			k.cache.Insert(obj, off, n)
		}
	}
	k.ra.Advance(obj, node.Size(), off, n, func(n int64, done func()) bool {
		return k.blk.TryReadAsyncT(tr, n, done)
	})
	k.vcpu.RunT(p, copyCycles(n), k.appTag, tr)
	s, err := k.fs.ReadAt(path, off, n)
	tr.EndSpan(sp, n)
	return s, err
}

// CreateFile creates an empty file (metadata only).
func (k *Kernel) CreateFile(p *sim.Proc, path string) error {
	k.vcpu.Run(p, syscallCycles, k.appTag)
	_, err := k.fs.Create(path)
	return err
}

// AppendFile appends content to a file: user→kernel copy, page-cache
// insertion, and asynchronous writeback to virtio-blk.
func (k *Kernel) AppendFile(p *sim.Proc, path string, c data.Content) error {
	n := c.Len()
	k.vcpu.Run(p, syscallCycles+copyCycles(n), k.appTag)
	node, err := k.fs.Stat(path)
	if err != nil {
		return err
	}
	oldSize := node.Size()
	if err := k.fs.Append(path, c); err != nil {
		return err
	}
	k.cache.Insert(int64(node.Ino()), oldSize, n)
	k.blk.WriteAsync(p, n)
	return nil
}

// MkdirAll creates directories (metadata only).
func (k *Kernel) MkdirAll(p *sim.Proc, path string) error {
	k.vcpu.Run(p, syscallCycles, k.appTag)
	return k.fs.MkdirAll(path)
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
