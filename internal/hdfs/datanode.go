package hdfs

import (
	"fmt"

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

// Kernel returns the VM kernel the datanode runs in.
func (dn *DataNode) Kernel() *guest.Kernel { return dn.kernel }

// Stop simulates a datanode crash: the listener closes, so new connections
// are refused. Readers fail over to other replicas.
func (dn *DataNode) Stop() {
	dn.listener.Close()
}

// HasBlock reports whether the datanode stores the block.
func (dn *DataNode) HasBlock(id BlockID) bool {
	_, ok := dn.blocks[id]
	return ok
}

// ServedBytes returns total bytes streamed to readers over TCP (zero when
// every read went through vRead).
func (dn *DataNode) ServedBytes() int64 { return dn.served }

// AcceptedConns returns how many DataXceiver sessions were opened.
func (dn *DataNode) AcceptedConns() int64 { return dn.accepted }

// serve accepts connections, one handler process each.
func (dn *DataNode) serve(p *sim.Proc) {
	for {
		conn, ok := dn.listener.Accept(p)
		if !ok {
			return
		}
		dn.accepted++
		dn.env.Go(fmt.Sprintf("dn:%s:xceiver", dn.Name()), func(hp *sim.Proc) {
			dn.handle(hp, conn)
		})
	}
}

// handle processes one DataXceiver session. Read sessions serve requests in
// a loop until the client closes (connection reuse for positional reads);
// write sessions carry one block and then close.
func (dn *DataNode) handle(p *sim.Proc, conn *guest.Conn) {
	for {
		hdr, ok := conn.RecvFull(p, readReqSize)
		if !ok {
			return
		}
		head := hdr.Bytes()
		switch decodeOp(head) {
		case opRead:
			if !dn.handleRead(p, conn, decodeReadReq(head)) {
				return
			}
		case opWrite:
			rest, ok := conn.RecvFull(p, writeReqSize-readReqSize)
			if !ok {
				return
			}
			dn.handleWrite(p, conn, decodeWriteReq(append(head, rest.Bytes()...)))
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
func (dn *DataNode) handleRead(p *sim.Proc, conn *guest.Conn, req readReq) bool {
	// The connection adopted the client request's trace when the request
	// segment arrived, so server-side work attributes to that request.
	tr := conn.Trace()
	dn.kernel.VCPU().RunT(p, requestCycles, metrics.TagDatanodeApp, tr)
	path := blockPath(req.id)
	if _, err := dn.kernel.FS().Stat(path); err != nil {
		_ = conn.Send(p, encodeResp(statusErr, 0))
		conn.Close(p)
		return false
	}
	sp := tr.Begin(trace.LayerServer, "dn-read")
	if err := conn.Send(p, encodeResp(statusOK, req.n)); err != nil {
		tr.EndSpan(sp, 0)
		return false
	}
	sent := int64(0)
	for sent < req.n {
		pkt := req.n - sent
		if pkt > packetBytes {
			pkt = packetBytes
		}
		s, err := dn.kernel.ReadFileAtT(p, tr, path, req.off+sent, pkt)
		if err != nil {
			// Header already promised n bytes; this is a stream-level
			// failure (client sees premature EOF).
			tr.EndSpan(sp, sent)
			conn.Close(p)
			return false
		}
		dn.kernel.VCPU().RunT(p, dnSendCycles(pkt), metrics.TagDatanodeApp, tr)
		if err := conn.Send(p, s); err != nil {
			tr.EndSpan(sp, sent)
			return false
		}
		sent += pkt
	}
	tr.EndSpan(sp, sent)
	dn.served += sent
	return true
}

// handleWrite receives a block (possibly forwarding down a pipeline), stores
// it as a file, reports to the namenode, and acks upstream.
func (dn *DataNode) handleWrite(p *sim.Proc, conn *guest.Conn, req writeReq) {
	dn.kernel.VCPU().Run(p, requestCycles, metrics.TagDatanodeApp)
	path := blockPath(req.id)
	if err := dn.kernel.CreateFile(p, path); err != nil {
		_ = conn.Send(p, encodeAck(statusErr))
		conn.Close(p)
		return
	}
	// Open the downstream pipeline before receiving data.
	var next *guest.Conn
	if len(req.targets) > 0 {
		var err error
		next, err = dn.kernel.Dial(p, req.targets[0], DataPort)
		if err == nil {
			err = next.Send(p, encodeWriteReq(writeReq{id: req.id, n: req.n, targets: req.targets[1:]}))
		}
		if err != nil {
			_ = conn.Send(p, encodeAck(statusErr))
			conn.Close(p)
			return
		}
	}
	received := int64(0)
	for received < req.n {
		pkt := req.n - received
		if pkt > packetBytes {
			pkt = packetBytes
		}
		s, ok := conn.RecvFull(p, pkt)
		if !ok {
			conn.Close(p)
			return
		}
		dn.kernel.VCPU().Run(p, checksumCycles(pkt), metrics.TagDatanodeApp)
		if err := dn.kernel.AppendFile(p, path, s.Content()); err != nil {
			conn.Close(p)
			return
		}
		if next != nil {
			if err := next.Send(p, s); err != nil {
				conn.Close(p)
				return
			}
		}
		received += pkt
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
