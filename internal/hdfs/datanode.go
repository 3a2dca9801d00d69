package hdfs

import (
	"fmt"

	"vread/internal/cpusched"
	"vread/internal/data"
	"vread/internal/fsim"
	"vread/internal/guest"
	"vread/internal/metrics"
	"vread/internal/sim"
	"vread/internal/trace"
)

// DataNode serves block reads and pipeline writes from inside its VM. Blocks
// are ordinary files under /hadoop/dfs/data in the VM's file system — which
// is precisely what lets the vRead daemon read them from the hypervisor.
type DataNode struct {
	env      *sim.Env
	nn       Namespace
	kernel   *guest.Kernel
	listener *guest.Listener
	blocks   map[BlockID]int64
	served   int64 // bytes streamed to readers
	accepted int64 // connections accepted
}

// StartDataNode boots a datanode in the given VM kernel and registers it
// with the namespace (a standalone NameNode or a federated Router).
func StartDataNode(env *sim.Env, nn Namespace, kernel *guest.Kernel) *DataNode {
	if err := kernel.FS().MkdirAll(DataDir); err != nil {
		panic(fmt.Sprintf("hdfs: %v", err))
	}
	dn := &DataNode{
		env:    env,
		nn:     nn,
		kernel: kernel,
		blocks: make(map[BlockID]int64),
	}
	nn.registerDataNode(dn)
	dn.listener = kernel.Listen(DataPort)
	env.Go("datanode:"+kernel.Name(), dn.serve)
	return dn
}

// Name returns the datanode's VM name (its ID in the paper's terms).
func (dn *DataNode) Name() string { return dn.kernel.Name() }

// ServedBytes returns total bytes streamed to readers over TCP (zero when
// every read went through vRead).
func (dn *DataNode) ServedBytes() int64 { return dn.served }

// serve accepts connections, one handler process each.
func (dn *DataNode) serve(p *sim.Proc) {
	for {
		conn, ok := dn.listener.Accept(p)
		if !ok {
			return
		}
		dn.accepted++
		x := &xceiver{dn: dn, conn: conn}
		x.st.Bind(dn.env, x)
		dn.env.Go(fmt.Sprintf("dn:%s:xceiver", dn.Name()), func(hp *sim.Proc) {
			dn.handle(hp, x)
		})
	}
}

// xceiver is one DataXceiver session. The session is a straight-line Proc;
// its packet loops run as the event handlers below, firing the events the
// Proc's loops did, while the Proc parks once per block.
type xceiver struct {
	dn         *DataNode
	conn, next *guest.Conn
	st         cpusched.Steps[*xceiver]
	file       guest.FileOp
	tr         *trace.Trace
	node       *fsim.Inode // the block file, resolved once per request
	write      bool
	off, n     int64
	moved      int64 // bytes streamed so far
	pkt        data.Slice
	failed     bool
	wake       func() // the session Proc's inline completion
}

// stream runs a packet loop over [x.off, x.off+x.n) and parks p until it
// ends.
func (x *xceiver) stream(p *sim.Proc, write bool) {
	x.write, x.moved, x.failed, x.wake = write, 0, false, p.ArmInline()
	x.nextPacket()
	p.Await()
	x.pkt = data.Slice{}
}

func (x *xceiver) nextPacket() {
	pkt := min(x.n-x.moved, packetBytes)
	switch {
	case pkt <= 0:
		x.wake()
	case x.write:
		x.conn.RecvFullThen(pkt, x.st.Direct((*xceiver).received))
	default:
		x.dn.kernel.ReadFileAtThen(&x.file, x.tr, x.node, x.off+x.moved, pkt, x.st.Direct((*xceiver).readDone))
	}
}

func (x *xceiver) stop() {
	x.failed = true
	x.wake()
}

//lint:hotpath
func (x *xceiver) readDone() {
	if x.pkt = x.file.S; x.file.Err != nil {
		x.stop()
		return
	}
	x.st.Charge(x.dn.kernel.VCPU(), dnSendCycles(x.pkt.Len()), metrics.TagDatanodeApp, x.tr, (*xceiver).send)
}

//lint:hotpath
func (x *xceiver) send() { x.conn.SendThen(x.pkt, x.st.Direct((*xceiver).sent)) }

//lint:hotpath
func (x *xceiver) received() {
	var ok bool
	if x.pkt, ok = x.conn.Received(); !ok {
		x.stop()
		return
	}
	x.st.Charge(x.dn.kernel.VCPU(), checksumCycles(x.pkt.Len()), metrics.TagDatanodeApp, nil, (*xceiver).store)
}

//lint:hotpath
func (x *xceiver) store() {
	x.dn.kernel.AppendFileThen(&x.file, x.node, x.pkt, x.st.Direct((*xceiver).forward))
}

func (x *xceiver) forward() {
	switch {
	case x.file.Err != nil:
		x.stop()
	case x.next != nil:
		x.next.SendThen(x.pkt, x.st.Direct((*xceiver).sent))
	default:
		x.sent()
	}
}

// sent moves on once the packet has gone out, to the client on a read and
// down the pipeline on a write.
func (x *xceiver) sent() {
	out := x.conn
	if x.write {
		out = x.next
	}
	if out != nil && out.SendErr() != nil {
		x.stop()
		return
	}
	x.moved += x.pkt.Len()
	x.nextPacket()
}

// handle processes one DataXceiver session. Read sessions serve requests in
// a loop until the client closes (connection reuse for positional reads);
// write sessions carry one block and then close.
func (dn *DataNode) handle(p *sim.Proc, x *xceiver) {
	conn := x.conn
	for {
		hdr, ok := conn.RecvFull(p, readReqSize)
		if !ok {
			return
		}
		head := hdr.Bytes()
		switch decodeOp(head) {
		case opRead:
			if !dn.handleRead(p, x, decodeReadReq(head)) {
				return
			}
		case opWrite:
			rest, ok := conn.RecvFull(p, writeReqSize-readReqSize)
			if !ok {
				return
			}
			dn.handleWrite(p, x, decodeWriteReq(append(head, rest.Bytes()...)))
			return
		default:
			_ = conn.Send(p, encodeResp(statusErr, 0))
			return
		}
	}
}

// handleRead streams [off, off+n) of a block in packet-sized reads:
// DataXceiver setup, per-packet file read (guest cache or virtio-blk),
// checksum generation, and socket send. It reports whether the connection
// is still usable for further requests.
func (dn *DataNode) handleRead(p *sim.Proc, x *xceiver, req readReq) bool {
	conn := x.conn
	// The connection adopted the client request's trace when the request
	// segment arrived, so server-side work attributes to that request.
	tr := conn.Trace()
	dn.kernel.VCPU().RunT(p, requestCycles, metrics.TagDatanodeApp, tr)
	node, err := dn.kernel.FS().Stat(blockPath(req.id))
	if err != nil {
		_ = conn.Send(p, encodeResp(statusErr, 0))
		conn.Close(p)
		return false
	}
	sp := tr.Begin(trace.LayerServer, "dn-read")
	if err := conn.Send(p, encodeResp(statusOK, req.n)); err != nil {
		tr.EndSpan(sp, 0)
		return false
	}
	x.tr, x.node, x.off, x.n = tr, node, req.off, req.n
	x.stream(p, false)
	tr.EndSpan(sp, x.moved)
	if x.failed {
		if x.file.Err != nil {
			// Header already promised n bytes; this is a stream-level
			// failure (client sees premature EOF).
			conn.Close(p)
		}
		return false
	}
	dn.served += x.moved
	return true
}

// handleWrite receives a block (possibly forwarding down a pipeline), stores
// it as a file, reports to the namenode, and acks upstream.
func (dn *DataNode) handleWrite(p *sim.Proc, x *xceiver, req writeReq) {
	conn := x.conn
	dn.kernel.VCPU().Run(p, requestCycles, metrics.TagDatanodeApp)
	path := blockPath(req.id)
	err := dn.kernel.CreateFile(p, path)
	var node *fsim.Inode
	if err == nil {
		node, err = dn.kernel.FS().Stat(path)
	}
	// Open the downstream pipeline before receiving data.
	var next *guest.Conn
	if err == nil && len(req.targets) > 0 {
		if next, err = dn.kernel.Dial(p, req.targets[0], DataPort); err == nil {
			err = next.Send(p, encodeWriteReq(writeReq{id: req.id, n: req.n, targets: req.targets[1:]}))
		}
	}
	if err != nil {
		_ = conn.Send(p, encodeAck(statusErr))
		conn.Close(p)
		return
	}
	x.tr, x.node, x.n, x.next = nil, node, req.n, next
	x.stream(p, true)
	if x.failed {
		conn.Close(p)
		return
	}
	if next != nil {
		if ack, ok := next.RecvFull(p, ackSize); !ok || decodeAck(ack.Bytes()) != statusOK {
			_ = conn.Send(p, encodeAck(statusErr))
			conn.Close(p)
			return
		}
		next.Close(p)
	}
	dn.blocks[req.id] = req.n
	dn.nn.blockReceived(dn.Name(), req.id, req.n)
	_ = conn.Send(p, encodeAck(statusOK))
	conn.Close(p)
}

// removeBlock deletes a block file (namenode-commanded).
func (dn *DataNode) removeBlock(p *sim.Proc, id BlockID) {
	if _, ok := dn.blocks[id]; !ok {
		return
	}
	delete(dn.blocks, id)
	_ = dn.kernel.RemoveFile(p, blockPath(id))
}
