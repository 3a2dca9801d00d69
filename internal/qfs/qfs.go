// Package qfs implements a second distributed file system in the
// QFS/GFS family — a metaserver tracking files as chunk lists and chunk
// servers storing 64 MiB chunk files inside their VMs — to demonstrate the
// paper's §3 claim that the vRead framework "is able to be generalized to
// other similar distributed file systems such as QFS and GFS".
//
// The integration point is deliberately thin: chunks are regular files in
// the chunk server VM's file system, so the same vRead daemons, mounts and
// rings serve them — the client plugs core.Lib in through the PathReader
// hook and the metaserver drives the daemon's dentry refresh exactly like
// the HDFS namenode does.
package qfs

import (
	"errors"
	"fmt"
	"time"

	"vread/internal/guest"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// Errors returned by QFS operations.
var (
	ErrNotFound = errors.New("qfs: file not found")
	ErrExists   = errors.New("qfs: file already exists")
	ErrNoServer = errors.New("qfs: no chunk server available")
)

// ChunkPort is the chunk server port.
const ChunkPort = 20000

// ChunkDir is where chunk servers keep chunk files inside their VM.
const ChunkDir = "/qfs/chunks"

// QFS costs.
const (
	// packetBytes is the streaming unit.
	packetBytes = 64 << 10
	// rpcLatency is one metaserver round trip.
	rpcLatency = 250 * time.Microsecond
	// rpcCycles is client-side RPC processing.
	rpcCycles = 10000
	// ioCyclesPerKB is client/server per-KB processing (QFS's C++ stack is
	// leaner than Hadoop's Java one).
	ioCyclesPerKB = 1800
	// packetCycles is per-packet processing on each side.
	packetCycles = 9000
)

// Config holds QFS parameters.
type Config struct {
	// ChunkSize is the striping unit. Default 64 MiB.
	ChunkSize int64
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.ChunkSize == 0 {
		c.ChunkSize = 64 << 20
	}
	return c
}

func ioCycles(n int64) int64 {
	packets := (n + packetBytes - 1) / packetBytes
	return n*ioCyclesPerKB/1024 + packets*packetCycles
}

// ChunkID identifies one chunk.
type ChunkID int64

// Path returns the chunk's file path inside its chunk server VM.
func (id ChunkID) Path() string { return fmt.Sprintf("%s/chunk_%d", ChunkDir, int64(id)) }

// ChunkInfo is the metaserver's record of one chunk.
type ChunkInfo struct {
	ID         ChunkID
	Size       int64
	FileOffset int64
	Server     string // chunk server VM name
}

// FileEventListener observes new chunks (vRead's refresh hook; the vRead
// manager implements it as it does HDFS's BlockEventListener). QFS has no
// delete, so no chunk is ever removed.
type FileEventListener interface {
	BlockAdded(server, path string)
}

// MetaServer tracks file → chunk metadata. As with the HDFS namenode,
// metadata RPCs are modeled as latency + client cycles.
type MetaServer struct {
	env       *sim.Env
	cfg       Config
	files     map[string]*fileMeta
	servers   map[string]*ChunkServer
	order     []string
	nextChunk ChunkID
	nextRR    int
	listeners []FileEventListener
}

type fileMeta struct {
	chunks   []ChunkInfo
	complete bool
}

// NewMetaServer creates an empty metaserver.
func NewMetaServer(env *sim.Env, cfg Config) *MetaServer {
	return &MetaServer{
		env:     env,
		cfg:     cfg.WithDefaults(),
		files:   make(map[string]*fileMeta),
		servers: make(map[string]*ChunkServer),
	}
}

// AddListener subscribes to chunk lifecycle events (vRead's refresh hook).
func (ms *MetaServer) AddListener(l FileEventListener) {
	ms.listeners = append(ms.listeners, l)
}

func (ms *MetaServer) rpc(p *sim.Proc, k *guest.Kernel) {
	k.VCPU().Run(p, rpcCycles, metrics.TagOthers)
	p.Sleep(rpcLatency)
}

// allocateChunk assigns the next chunk round-robin across chunk servers.
func (ms *MetaServer) allocateChunk(path string) (ChunkInfo, error) {
	if len(ms.order) == 0 {
		return ChunkInfo{}, ErrNoServer
	}
	meta := ms.files[path]
	ms.nextChunk++
	var off int64
	for _, c := range meta.chunks {
		off += c.Size
	}
	info := ChunkInfo{
		ID:         ms.nextChunk,
		FileOffset: off,
		Server:     ms.order[ms.nextRR%len(ms.order)],
	}
	ms.nextRR++
	meta.chunks = append(meta.chunks, info)
	return info, nil
}

// chunkWritten records a completed chunk and fires the refresh listeners.
func (ms *MetaServer) chunkWritten(server string, id ChunkID, size int64) {
	for _, meta := range ms.files {
		for i := range meta.chunks {
			if meta.chunks[i].ID == id {
				meta.chunks[i].Size = size
			}
		}
	}
	for _, l := range ms.listeners {
		l.BlockAdded(server, id.Path())
	}
}

func (ms *MetaServer) getChunks(p *sim.Proc, k *guest.Kernel, path string) ([]ChunkInfo, error) {
	ms.rpc(p, k)
	meta, ok := ms.files[path]
	if !ok || !meta.complete {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return append([]ChunkInfo(nil), meta.chunks...), nil
}
