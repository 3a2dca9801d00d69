package qfs

import (
	"encoding/binary"
	"fmt"

	"vread/internal/data"
	"vread/internal/guest"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// Wire protocol: fixed 32-byte headers (op, chunkID, off, n), raw data.
const (
	opReadChunk  uint64 = 1
	opWriteChunk uint64 = 2
	hdrSize             = 32
	ackSize             = 8
)

func encodeHdr(op uint64, id ChunkID, off, n int64) data.Slice {
	b := make([]byte, hdrSize)
	binary.BigEndian.PutUint64(b[0:], op)
	binary.BigEndian.PutUint64(b[8:], uint64(id))
	binary.BigEndian.PutUint64(b[16:], uint64(off))
	binary.BigEndian.PutUint64(b[24:], uint64(n))
	return data.NewSlice(data.Bytes(b))
}

func decodeHdr(b []byte) (op uint64, id ChunkID, off, n int64) {
	return binary.BigEndian.Uint64(b[0:]),
		ChunkID(binary.BigEndian.Uint64(b[8:])),
		int64(binary.BigEndian.Uint64(b[16:])),
		int64(binary.BigEndian.Uint64(b[24:]))
}

// ChunkServer stores and serves chunk files from inside its VM.
type ChunkServer struct {
	env    *sim.Env
	ms     *MetaServer
	kernel *guest.Kernel
	served int64
}

// StartChunkServer boots a chunk server in the VM and registers it.
func StartChunkServer(env *sim.Env, ms *MetaServer, kernel *guest.Kernel) *ChunkServer {
	if err := kernel.FS().MkdirAll(ChunkDir); err != nil {
		panic(fmt.Sprintf("qfs: %v", err))
	}
	cs := &ChunkServer{env: env, ms: ms, kernel: kernel}
	if _, ok := ms.servers[kernel.Name()]; ok {
		panic(fmt.Sprintf("qfs: duplicate chunk server %q", kernel.Name()))
	}
	ms.servers[kernel.Name()] = cs
	ms.order = append(ms.order, kernel.Name())
	listener := kernel.Listen(ChunkPort)
	env.Go("qfs-cs:"+kernel.Name(), func(p *sim.Proc) {
		for {
			conn, ok := listener.Accept(p)
			if !ok {
				return
			}
			env.Go("qfs-cs:"+kernel.Name()+":conn", func(hp *sim.Proc) {
				cs.handle(hp, conn)
			})
		}
	})
	return cs
}

// Name returns the chunk server's VM name.
func (cs *ChunkServer) Name() string { return cs.kernel.Name() }

// ServedBytes returns bytes streamed to readers over TCP (zero when every
// read went through vRead).
func (cs *ChunkServer) ServedBytes() int64 { return cs.served }

func (cs *ChunkServer) handle(p *sim.Proc, conn *guest.Conn) {
	for {
		hdr, ok := conn.RecvFull(p, hdrSize)
		if !ok {
			return
		}
		op, id, off, n := decodeHdr(hdr.Bytes())
		switch op {
		case opReadChunk:
			if !cs.handleRead(p, conn, id, off, n) {
				return
			}
		case opWriteChunk:
			cs.handleWrite(p, conn, id, n)
			return
		default:
			return
		}
	}
}

func (cs *ChunkServer) handleRead(p *sim.Proc, conn *guest.Conn, id ChunkID, off, n int64) bool {
	node, err := cs.kernel.FS().Stat(id.Path())
	if err != nil {
		return false
	}
	sent := int64(0)
	for sent < n {
		pkt := n - sent
		if pkt > packetBytes {
			pkt = packetBytes
		}
		s, err := cs.kernel.ReadFileAt(p, nil, node, off+sent, pkt)
		if err != nil {
			conn.Close(p)
			return false
		}
		cs.kernel.VCPU().Run(p, ioCycles(pkt), metrics.TagDatanodeApp)
		if err := conn.Send(p, s); err != nil {
			return false
		}
		sent += pkt
	}
	cs.served += sent
	return true
}

func (cs *ChunkServer) handleWrite(p *sim.Proc, conn *guest.Conn, id ChunkID, n int64) {
	path := id.Path()
	if err := cs.kernel.CreateFile(p, path); err != nil {
		conn.Close(p)
		return
	}
	received := int64(0)
	for received < n {
		pkt := n - received
		if pkt > packetBytes {
			pkt = packetBytes
		}
		s, ok := conn.RecvFull(p, pkt)
		if !ok {
			conn.Close(p)
			return
		}
		cs.kernel.VCPU().Run(p, ioCycles(pkt), metrics.TagDatanodeApp)
		if err := cs.kernel.AppendFile(p, path, data.Concat{s}); err != nil {
			conn.Close(p)
			return
		}
		received += pkt
	}
	cs.ms.chunkWritten(cs.Name(), id, n)
	ack := make([]byte, ackSize)
	_ = conn.Send(p, data.NewSlice(data.Bytes(ack)))
	conn.Close(p)
}
