package qfs

import (
	"fmt"

	"vread/internal/data"
	"vread/internal/guest"
	"vread/internal/metrics"
	"vread/internal/sim"
	"vread/internal/trace"
)

// Handle is an open read descriptor for one chunk (core.VFD satisfies it).
type Handle interface {
	ReadAt(p *sim.Proc, tr *trace.Trace, off, n int64) (data.Slice, error)
	Close(p *sim.Proc, tr *trace.Trace)
}

// PathReader is the vRead generalization hook: open a file by path on a
// chunk server VM's disk image. A thin adapter over core.Lib.OpenPath
// implements it (see UseVReadFunc in the tests and examples).
type PathReader interface {
	OpenPath(p *sim.Proc, tr *trace.Trace, server, path, key string) (Handle, bool)
}

// PathReaderFunc adapts a function to PathReader.
type PathReaderFunc func(p *sim.Proc, tr *trace.Trace, server, path, key string) (Handle, bool)

// OpenPath implements PathReader.
func (f PathReaderFunc) OpenPath(p *sim.Proc, tr *trace.Trace, server, path, key string) (Handle, bool) {
	return f(p, tr, server, path, key)
}

// Client is the QFS client: chunk-striped writes and reads with the
// optional vRead shortcut.
type Client struct {
	env    *sim.Env
	cfg    Config
	ms     *MetaServer
	kernel *guest.Kernel
	reader PathReader
}

// NewClient creates a client inside the VM kernel.
func NewClient(env *sim.Env, ms *MetaServer, kernel *guest.Kernel) *Client {
	return &Client{env: env, cfg: ms.cfg, ms: ms, kernel: kernel}
}

// SetPathReader installs (or removes, with nil) the vRead shortcut.
func (c *Client) SetPathReader(r PathReader) { c.reader = r }

// WriteFile stripes content across chunk servers.
func (c *Client) WriteFile(p *sim.Proc, path string, content data.Content) error {
	c.ms.rpc(p, c.kernel)
	if _, ok := c.ms.files[path]; ok {
		return fmt.Errorf("%w: %s", ErrExists, path)
	}
	c.ms.files[path] = &fileMeta{}
	total := content.Len()
	whole := data.NewSlice(content)
	for off := int64(0); off < total; {
		n := total - off
		if n > c.cfg.ChunkSize {
			n = c.cfg.ChunkSize
		}
		info, err := c.ms.allocateChunk(path)
		if err != nil {
			return err
		}
		if err := c.writeChunk(p, info, whole.Sub(off, n)); err != nil {
			return err
		}
		off += n
	}
	c.ms.files[path].complete = true
	return nil
}

func (c *Client) writeChunk(p *sim.Proc, info ChunkInfo, s data.Slice) error {
	conn, err := c.kernel.Dial(p, info.Server, ChunkPort)
	if err != nil {
		return err
	}
	defer conn.Close(p)
	if err := conn.Send(p, encodeHdr(opWriteChunk, info.ID, 0, s.Len())); err != nil {
		return err
	}
	for off := int64(0); off < s.Len(); {
		pkt := s.Len() - off
		if pkt > packetBytes {
			pkt = packetBytes
		}
		c.kernel.VCPU().Run(p, ioCycles(pkt), metrics.TagClientApp)
		if err := conn.Send(p, s.Sub(off, pkt)); err != nil {
			return err
		}
		off += pkt
	}
	if _, ok := conn.RecvFull(p, ackSize); !ok {
		return fmt.Errorf("qfs: chunk %d write unacked", info.ID)
	}
	return nil
}

// ReadFile reads the whole file, chunk by chunk, preferring vRead
// descriptors and falling back to chunk-server sockets. QFS reads are not
// traced.
func (c *Client) ReadFile(p *sim.Proc, path string) (data.Slice, error) {
	chunks, err := c.ms.getChunks(p, c.kernel, path)
	if err != nil {
		return data.Slice{}, err
	}
	var got data.Builder
	for _, ch := range chunks {
		s, err := c.readChunk(p, ch)
		if err != nil {
			return data.Slice{}, err
		}
		got.Add(s)
	}
	return got.Slice(), nil
}

// readChunk reads a whole chunk.
func (c *Client) readChunk(p *sim.Proc, ch ChunkInfo) (data.Slice, error) {
	if c.reader != nil {
		if h, ok := c.reader.OpenPath(p, nil, ch.Server, ch.ID.Path(), fmt.Sprintf("qfs-chunk-%d", ch.ID)); ok {
			s, err := h.ReadAt(p, nil, 0, ch.Size)
			h.Close(p, nil)
			if err == nil {
				return s, nil
			}
		}
	}
	// Vanilla socket path.
	conn, err := c.kernel.Dial(p, ch.Server, ChunkPort)
	if err != nil {
		return data.Slice{}, err
	}
	defer conn.Close(p)
	if err := conn.Send(p, encodeHdr(opReadChunk, ch.ID, 0, ch.Size)); err != nil {
		return data.Slice{}, err
	}
	s, ok := conn.RecvFull(p, ch.Size)
	if !ok {
		return data.Slice{}, fmt.Errorf("qfs: chunk %d stream ended early", ch.ID)
	}
	c.kernel.VCPU().Run(p, ioCycles(ch.Size), metrics.TagClientApp)
	return s, nil
}
