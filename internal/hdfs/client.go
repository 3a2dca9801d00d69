package hdfs

import (
	"fmt"
	"io"

	"vread/internal/data"
	"vread/internal/guest"
	"vread/internal/metrics"
	"vread/internal/sim"
	"vread/internal/trace"
)

// BlockHandle is an open vRead descriptor (Table 1's vfd) from the client's
// perspective. Every method carries the request trace (nil when untraced).
type BlockHandle interface {
	// ReadAt reads [off, off+n) of the block.
	ReadAt(p *sim.Proc, tr *trace.Trace, off, n int64) (data.Slice, error)
	// Close releases the descriptor.
	Close(p *sim.Proc, tr *trace.Trace)
}

// BlockReader is the pluggable read shortcut. internal/core installs the
// vRead implementation; a nil reader is vanilla HDFS.
type BlockReader interface {
	// OpenBlock attempts to open a block stored on the named datanode.
	// ok=false means "fall back to the original socket read path"
	// (Algorithm 1's vfd == null branch).
	OpenBlock(p *sim.Proc, tr *trace.Trace, client *guest.Kernel, info BlockInfo, datanode string) (BlockHandle, bool)
}

// Client is the DFSClient: the paper modifies exactly this layer
// (DFSInputStream read1/read2), leaving applications above untouched.
type Client struct {
	env    *sim.Env
	cfg    Config
	nn     Namespace
	kernel *guest.Kernel
	reader BlockReader
	tracer *trace.Tracer

	// Positional reads keep one connection per datanode (DataXceiver
	// sessions are reusable); preadMu serializes request/response pairs.
	preadConns map[string]*guest.Conn
	preadMu    map[string]*sim.Mutex
}

// NewClient creates a DFSClient inside the given VM kernel, bound to a
// namespace (a standalone NameNode or a federated Router).
func NewClient(env *sim.Env, nn Namespace, kernel *guest.Kernel) *Client {
	return &Client{
		env: env, cfg: nn.Config(), nn: nn, kernel: kernel,
		preadConns: make(map[string]*guest.Conn),
		preadMu:    make(map[string]*sim.Mutex),
	}
}

// SetBlockReader installs (or removes, with nil) the vRead shortcut.
func (c *Client) SetBlockReader(r BlockReader) { c.reader = r }

// SetTracer installs (or removes, with nil) the request tracer. Each Open,
// Read (read1) and ReadAt (read2) call becomes a sampling candidate.
func (c *Client) SetTracer(t *trace.Tracer) { c.tracer = t }

// Kernel returns the client's VM kernel.
func (c *Client) Kernel() *guest.Kernel { return c.kernel }

// ---------------------------------------------------------------------------
// Write path.

// WriteFile streams content into HDFS as a new file, block by block through
// the datanode pipeline.
func (c *Client) WriteFile(p *sim.Proc, path string, content data.Content) error {
	if err := c.nn.CreateFile(p, c.kernel, path); err != nil {
		return err
	}
	total := content.Len()
	whole := data.NewSlice(content)
	for off := int64(0); off < total; {
		n := total - off
		if n > c.cfg.BlockSize {
			n = c.cfg.BlockSize
		}
		info, err := c.nn.AllocateBlock(p, c.kernel, path)
		if err != nil {
			return err
		}
		if err := c.writeBlock(p, info, whole.Sub(off, n)); err != nil {
			return err
		}
		off += n
	}
	return c.nn.CompleteFile(p, c.kernel, path)
}

// writeBlock pushes one block through the pipeline head.
func (c *Client) writeBlock(p *sim.Proc, info BlockInfo, s data.Slice) error {
	head := info.Locations[0]
	conn, err := c.kernel.Dial(p, head, DataPort)
	if err != nil {
		return fmt.Errorf("hdfs: pipeline to %s: %w", head, err)
	}
	defer conn.Close(p)
	if err := conn.Send(p, encodeWriteReq(writeReq{id: info.ID, n: s.Len(), targets: info.Locations[1:]})); err != nil {
		return err
	}
	for off := int64(0); off < s.Len(); {
		pkt := s.Len() - off
		if pkt > packetBytes {
			pkt = packetBytes
		}
		c.kernel.VCPU().Run(p, checksumCycles(pkt), c.appTag())
		if err := conn.Send(p, s.Sub(off, pkt)); err != nil {
			return err
		}
		off += pkt
	}
	ack, ok := conn.RecvFull(p, ackSize)
	if !ok || decodeAck(ack.Bytes()) != statusOK {
		return fmt.Errorf("hdfs: pipeline write of %s failed", info.BlockName())
	}
	return nil
}

// DeleteFile removes a file.
func (c *Client) DeleteFile(p *sim.Proc, path string) error {
	return c.nn.DeleteFile(p, c.kernel, path)
}

func (c *Client) appTag() string {
	return metrics.TagClientApp
}

// ---------------------------------------------------------------------------
// Read path.

// FileReader is a DFSInputStream: sequential Read (the paper's read1) and
// positional ReadAt (read2).
type FileReader struct {
	c       *Client
	path    string
	blocks  []BlockInfo
	size    int64
	pos     int64
	stream  *blockStream            // current socket stream (vanilla path)
	handles map[BlockID]BlockHandle // the vfd hash of Algorithm 1
}

// Open fetches block locations and returns a reader positioned at 0.
func (c *Client) Open(p *sim.Proc, path string) (*FileReader, error) {
	tr := c.tracer.Request("open")
	blocks, err := c.nn.getBlockLocations(p, c.kernel, tr, path)
	tr.Finish(0)
	if err != nil {
		return nil, err
	}
	var size int64
	for _, b := range blocks {
		size += b.Size
	}
	return &FileReader{
		c:       c,
		path:    path,
		blocks:  blocks,
		size:    size,
		handles: make(map[BlockID]BlockHandle),
	}, nil
}

// Size returns the file length.
func (r *FileReader) Size() int64 { return r.size }

// Seek repositions the sequential stream (vRead_seek; the socket stream, if
// any, is abandoned like HDFS does on seek).
func (r *FileReader) Seek(p *sim.Proc, pos int64) error {
	if pos < 0 || pos > r.size {
		return fmt.Errorf("hdfs: seek to %d outside [0,%d]", pos, r.size)
	}
	r.dropStream(p)
	r.pos = pos
	return nil
}

// blockAt locates the block covering pos.
func (r *FileReader) blockAt(pos int64) (BlockInfo, bool) {
	for _, b := range r.blocks {
		if pos >= b.FileOffset && pos < b.FileOffset+b.Size {
			return b, true
		}
	}
	return BlockInfo{}, false
}

// Read is the paper's read1: sequential, within the current block, vRead
// descriptor first and socket fallback otherwise. It returns io.EOF at end
// of file.
func (r *FileReader) Read(p *sim.Proc, n int64) (data.Slice, error) {
	tr := r.c.tracer.Request("read1")
	s, err := r.read(p, tr, n)
	tr.Finish(s.Len())
	return s, err
}

func (r *FileReader) read(p *sim.Proc, tr *trace.Trace, n int64) (data.Slice, error) {
	if r.pos >= r.size {
		return data.Slice{}, io.EOF
	}
	blk, ok := r.blockAt(r.pos)
	if !ok {
		return data.Slice{}, fmt.Errorf("hdfs: no block at offset %d of %s", r.pos, r.path)
	}
	inBlk := r.pos - blk.FileOffset
	if max := blk.Size - inBlk; n > max {
		n = max
	}

	s, err := r.readFromBlock(p, tr, blk, inBlk, n, true)
	if err != nil {
		return data.Slice{}, err
	}
	r.pos += n
	// Algorithm 1 lines 24–28: close the descriptor at block end.
	if r.pos == blk.FileOffset+blk.Size {
		r.closeHandle(p, tr, blk)
		r.dropStream(p)
	}
	return s, nil
}

// ReadAt is the paper's read2: positional, possibly spanning blocks
// (Algorithm 2).
func (r *FileReader) ReadAt(p *sim.Proc, position, n int64) (data.Slice, error) {
	tr := r.c.tracer.Request("read2")
	s, err := r.readAt(p, tr, position, n)
	tr.Finish(s.Len())
	return s, err
}

func (r *FileReader) readAt(p *sim.Proc, tr *trace.Trace, position, n int64) (data.Slice, error) {
	if position < 0 || position+n > r.size {
		return data.Slice{}, fmt.Errorf("hdfs: pread [%d,%d) outside file of %d", position, position+n, r.size)
	}
	var got data.Builder
	for remaining := n; remaining > 0; {
		blk, ok := r.blockAt(position)
		if !ok {
			return data.Slice{}, fmt.Errorf("hdfs: no block at offset %d", position)
		}
		start := position - blk.FileOffset
		bytesToRead := blk.Size - start
		if bytesToRead > remaining {
			bytesToRead = remaining
		}
		s, err := r.readFromBlock(p, tr, blk, start, bytesToRead, false)
		if err != nil {
			return data.Slice{}, err
		}
		got.Add(s)
		remaining -= bytesToRead
		position += bytesToRead
	}
	return got.Slice(), nil
}

// readFromBlock dispatches one in-block range: short-circuit, vRead
// descriptor, or socket (streaming for read1, one-shot for read2). A
// failing replica is skipped and the next location tried (HDFS's dead-node
// failover).
func (r *FileReader) readFromBlock(p *sim.Proc, tr *trace.Trace, blk BlockInfo, off, n int64, sequential bool) (data.Slice, error) {
	if len(blk.Locations) == 0 {
		return data.Slice{}, ErrNoDatanode
	}
	var lastErr error
	for _, dn := range blk.Locations {
		s, err := r.readFromReplica(p, tr, blk, dn, off, n, sequential)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return data.Slice{}, fmt.Errorf("hdfs: all %d replicas of %s failed: %w",
		len(blk.Locations), blk.BlockName(), lastErr)
}

// readFromReplica reads one in-block range from one datanode. The trace
// records which of the three paths served the range.
func (r *FileReader) readFromReplica(p *sim.Proc, tr *trace.Trace, blk BlockInfo, dn string, off, n int64, sequential bool) (data.Slice, error) {
	// HDFS-2246 short-circuit: client and datanode share the VM.
	if r.c.cfg.ShortCircuit && dn == r.c.kernel.Name() {
		tr.Event(trace.LayerClient, "path:short-circuit", n)
		node, err := r.c.kernel.FS().Stat(blockPath(blk.ID))
		if err != nil {
			return data.Slice{}, err
		}
		return r.c.kernel.ReadFileAt(p, tr, node, off, n)
	}

	// vRead path (Algorithm 1 lines 10–19).
	if r.c.reader != nil {
		h, ok := r.handles[blk.ID]
		if !ok {
			if vfd, opened := r.c.reader.OpenBlock(p, tr, r.c.kernel, blk, dn); opened {
				r.handles[blk.ID] = vfd
				h = vfd
			}
		}
		if h != nil {
			tr.Event(trace.LayerClient, "path:vread", n)
			s, err := h.ReadAt(p, tr, off, n)
			if err == nil {
				return s, nil
			}
			// Broken descriptor: drop it and fall through to the socket.
			h.Close(p, tr)
			delete(r.handles, blk.ID)
		}
	}

	// Original socket path (read_buffer / fetchBlocks).
	tr.Event(trace.LayerClient, "path:socket", n)
	if sequential {
		return r.streamRead(p, tr, blk, dn, off, n)
	}
	return r.oneShotRead(p, tr, blk, dn, off, n)
}

// blockStream is an open sequential socket read of one block's tail.
type blockStream struct {
	conn      *guest.Conn
	blockID   BlockID
	nextOff   int64
	remaining int64
}

// streamRead keeps one streaming request open per block and pulls n bytes.
func (r *FileReader) streamRead(p *sim.Proc, tr *trace.Trace, blk BlockInfo, dn string, off, n int64) (data.Slice, error) {
	st := r.stream
	if st == nil || st.blockID != blk.ID || st.nextOff != off {
		r.dropStream(p)
		conn, err := r.c.kernel.DialT(p, tr, dn, DataPort)
		if err != nil {
			return data.Slice{}, fmt.Errorf("hdfs: connect %s: %w", dn, err)
		}
		want := blk.Size - off
		if err := conn.Send(p, encodeReadReq(readReq{id: blk.ID, off: off, n: want})); err != nil {
			return data.Slice{}, err
		}
		hdr, ok := conn.RecvFull(p, respHdrSize)
		if !ok {
			return data.Slice{}, fmt.Errorf("hdfs: short response from %s", dn)
		}
		if status, _ := decodeResp(hdr.Bytes()); status != statusOK {
			conn.Close(p)
			return data.Slice{}, fmt.Errorf("hdfs: %s rejected read of %s", dn, blk.BlockName())
		}
		st = &blockStream{conn: conn, blockID: blk.ID, nextOff: off, remaining: want}
		r.stream = st
	}
	// Reused streams adopted earlier requests' traces from arriving data;
	// point the receive side back at this request before pulling.
	st.conn.SetTrace(tr)
	sp := tr.Begin(trace.LayerClient, "socket-stream")
	s, ok := st.conn.RecvFull(p, n)
	if !ok {
		tr.EndSpan(sp, 0)
		r.dropStream(p)
		return data.Slice{}, fmt.Errorf("hdfs: stream of %s ended early", blk.BlockName())
	}
	r.c.kernel.VCPU().RunT(p, clientRecvCycles(n), r.c.appTag(), tr)
	tr.EndSpan(sp, n)
	st.nextOff += n
	st.remaining -= n
	if st.remaining == 0 {
		r.dropStream(p)
	}
	return s, nil
}

// oneShotRead performs a single positional request (read2's fetchBlocks)
// over the client's cached per-datanode connection.
func (r *FileReader) oneShotRead(p *sim.Proc, tr *trace.Trace, blk BlockInfo, dn string, off, n int64) (data.Slice, error) {
	mu := r.c.preadMu[dn]
	if mu == nil {
		mu = new(sim.Mutex)
		r.c.preadMu[dn] = mu
	}
	mu.Lock(p)
	defer mu.Unlock()

	conn := r.c.preadConns[dn]
	if conn == nil {
		var err error
		conn, err = r.c.kernel.DialT(p, tr, dn, DataPort)
		if err != nil {
			return data.Slice{}, fmt.Errorf("hdfs: connect %s: %w", dn, err)
		}
		r.c.preadConns[dn] = conn
	}
	// Cached connections still carry the previous request's trace.
	conn.SetTrace(tr)
	sp := tr.Begin(trace.LayerClient, "socket-pread")
	drop := func() {
		tr.EndSpan(sp, 0)
		conn.Close(p)
		delete(r.c.preadConns, dn)
	}
	if err := conn.Send(p, encodeReadReq(readReq{id: blk.ID, off: off, n: n})); err != nil {
		drop()
		return data.Slice{}, err
	}
	hdr, ok := conn.RecvFull(p, respHdrSize)
	if !ok {
		drop()
		return data.Slice{}, fmt.Errorf("hdfs: short response from %s", dn)
	}
	if status, _ := decodeResp(hdr.Bytes()); status != statusOK {
		drop()
		return data.Slice{}, fmt.Errorf("hdfs: %s rejected read of %s", dn, blk.BlockName())
	}
	s, ok := conn.RecvFull(p, n)
	if !ok {
		drop()
		return data.Slice{}, fmt.Errorf("hdfs: stream of %s ended early", blk.BlockName())
	}
	r.c.kernel.VCPU().RunT(p, clientRecvCycles(n), r.c.appTag(), tr)
	tr.EndSpan(sp, n)
	return s, nil
}

func (r *FileReader) closeHandle(p *sim.Proc, tr *trace.Trace, blk BlockInfo) {
	if h, ok := r.handles[blk.ID]; ok {
		h.Close(p, tr)
		delete(r.handles, blk.ID)
	}
}

func (r *FileReader) dropStream(p *sim.Proc) {
	if r.stream != nil {
		r.stream.conn.Close(p)
		r.stream = nil
	}
}

// Close releases descriptors and streams.
func (r *FileReader) Close(p *sim.Proc) {
	for id, h := range r.handles {
		h.Close(p, nil)
		delete(r.handles, id)
	}
	r.dropStream(p)
}

// ReadFull reads exactly n sequential bytes via Read.
func (r *FileReader) ReadFull(p *sim.Proc, n int64) (data.Slice, error) {
	var got data.Builder
	for got.Len() < n {
		s, err := r.Read(p, n-got.Len())
		if err != nil {
			return data.Slice{}, err
		}
		got.Add(s)
	}
	return got.Slice(), nil
}
