// Package storage models the physical storage layer of a host: an SSD-like
// block device with FIFO service, and the LRU page caches that sit above it
// (one inside each guest kernel, one in the host kernel serving the vRead
// daemon's loop-mounted reads).
//
// The cache-level split is what produces the paper's read vs re-read shapes:
// vanilla HDFS re-reads hit the *datanode guest's* page cache (bounded by
// the VM's small RAM), while vRead re-reads hit the *host's* page cache.
package storage

import (
	"fmt"
	"time"

	"vread/internal/faults"
	"vread/internal/sim"
	"vread/internal/trace"
)

// writeLatency is the fixed per-request write latency (write-back cache
// on the device).
const writeLatency = 60 * time.Microsecond

// DiskConfig describes a device. Zero values select an SSD similar to the
// paper's testbed drives.
type DiskConfig struct {
	// ReadLatency is the fixed per-request service latency. Default 100µs.
	ReadLatency time.Duration
	// ReadBandwidth in bytes/second. Default 500 MB/s.
	ReadBandwidth int64
	// WriteBandwidth in bytes/second. Default 400 MB/s.
	WriteBandwidth int64
}

func (c DiskConfig) withDefaults() DiskConfig {
	if c.ReadLatency == 0 {
		c.ReadLatency = 100 * time.Microsecond
	}
	if c.ReadBandwidth == 0 {
		c.ReadBandwidth = 500_000_000
	}
	if c.WriteBandwidth == 0 {
		c.WriteBandwidth = 400_000_000
	}
	return c
}

// DiskStats counts device activity.
type DiskStats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
}

// Disk is one physical device with FIFO request service.
type Disk struct {
	env       *sim.Env
	cfg       DiskConfig
	name      string
	busyUntil time.Duration
	stats     DiskStats
	faults    *faults.Plan
}

// NewDisk creates a device.
func NewDisk(env *sim.Env, name string, cfg DiskConfig) *Disk {
	return &Disk{env: env, cfg: cfg.withDefaults(), name: name}
}

// InjectFaults arms the device's faultpoints (disk.read.slow) from plan.
// A nil plan disables injection.
func (d *Disk) InjectFaults(plan *faults.Plan) { d.faults = plan }

// Stats returns a copy of the activity counters.
func (d *Disk) Stats() DiskStats { return d.stats }

// ReadAsync submits a read of n bytes; onDone fires when the device
// completes it (FIFO behind earlier requests).
func (d *Disk) ReadAsync(n int64, onDone func()) {
	d.ReadAsyncT(nil, n, onDone)
}

// ReadAsyncT is ReadAsync with a "disk read" span (submit → completion) on
// the request trace.
func (d *Disk) ReadAsyncT(tr *trace.Trace, n int64, onDone func()) {
	lat := d.cfg.ReadLatency
	if extra, ok := d.faults.ShouldDelay(faults.DiskReadSlow); ok {
		lat += extra
		tr.Event(trace.LayerDisk, "fault:disk-slow", 0)
	}
	sp := tr.Begin(trace.LayerDisk, "read")
	d.submit(n, lat, d.cfg.ReadBandwidth, func() {
		tr.EndSpan(sp, n)
		if onDone != nil {
			onDone()
		}
	})
	d.stats.Reads++
	d.stats.BytesRead += n
}

// WriteAsyncT submits a write of n bytes with a "disk write" span (submit →
// completion) on the request trace; onDone, if not nil, fires on completion.
func (d *Disk) WriteAsyncT(tr *trace.Trace, n int64, onDone func()) {
	sp := tr.Begin(trace.LayerDisk, "write")
	d.submit(n, writeLatency, d.cfg.WriteBandwidth, func() {
		tr.EndSpan(sp, n)
		if onDone != nil {
			onDone()
		}
	})
	d.stats.Writes++
	d.stats.BytesWritten += n
}

func (d *Disk) submit(n int64, lat time.Duration, bw int64, onDone func()) {
	if n < 0 {
		panic(fmt.Sprintf("storage: negative I/O size %d", n))
	}
	start := d.env.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	transfer := time.Duration(float64(n) / float64(bw) * float64(time.Second))
	finish := start + lat + transfer
	d.busyUntil = finish
	d.env.Schedule(finish-d.env.Now(), onDone)
}

// ---------------------------------------------------------------------------
// Page cache.

// CacheKey identifies one cached chunk of an object.
type CacheKey struct {
	Object int64
	Chunk  int64
}

// CacheStats counts cache activity in bytes.
type CacheStats struct {
	HitBytes  int64
	MissBytes int64
}

// PageCache is an LRU cache over (object, chunk) pairs. Chunk granularity is
// configurable (default 64 KiB) — coarser than a real 4 KiB page cache but
// equivalent for sequential HDFS-block I/O, and much cheaper to simulate.
type PageCache struct {
	name      string
	chunkSize int64
	capacity  int // max chunks
	entries   map[CacheKey]*lruNode
	head      *lruNode // most recent
	tail      *lruNode // least recent
	stats     CacheStats
}

type lruNode struct {
	key        CacheKey
	prev, next *lruNode
}

// NewPageCache creates a cache holding capacityBytes with the given chunk
// size (0 = 64 KiB).
func NewPageCache(name string, capacityBytes, chunkSize int64) *PageCache {
	if chunkSize == 0 {
		chunkSize = 64 << 10
	}
	capChunks := int(capacityBytes / chunkSize)
	if capChunks < 1 {
		capChunks = 1
	}
	return &PageCache{
		name:      name,
		chunkSize: chunkSize,
		capacity:  capChunks,
		entries:   make(map[CacheKey]*lruNode),
	}
}

// Stats returns a copy of the byte counters.
func (c *PageCache) Stats() CacheStats { return c.stats }

// Lookup classifies the byte range [off, off+n) of object into cached and
// uncached bytes, promoting hits in LRU order. It does not insert.
func (c *PageCache) Lookup(object, off, n int64) (hit, miss int64) {
	c.forEachChunk(off, n, func(chunk, bytes int64) {
		if node, ok := c.entries[CacheKey{object, chunk}]; ok {
			c.promote(node)
			hit += bytes
		} else {
			miss += bytes
		}
	})
	c.stats.HitBytes += hit
	c.stats.MissBytes += miss
	return hit, miss
}

// Insert marks the byte range [off, off+n) of object cached, evicting LRU
// chunks as needed.
func (c *PageCache) Insert(object, off, n int64) {
	c.forEachChunk(off, n, func(chunk, bytes int64) {
		key := CacheKey{object, chunk}
		if node, ok := c.entries[key]; ok {
			c.promote(node)
			return
		}
		node := &lruNode{key: key}
		c.entries[key] = node
		c.pushFront(node)
		for len(c.entries) > c.capacity {
			c.evictLRU()
		}
	})
}

// Contains reports whether the full range is cached, without promoting or
// counting stats.
func (c *PageCache) Contains(object, off, n int64) bool {
	all := true
	c.forEachChunk(off, n, func(chunk, bytes int64) {
		if _, ok := c.entries[CacheKey{object, chunk}]; !ok {
			all = false
		}
	})
	return all
}

// InvalidateObject drops every cached chunk of object.
func (c *PageCache) InvalidateObject(object int64) {
	for key, node := range c.entries {
		if key.Object == object {
			c.unlink(node)
			delete(c.entries, key)
		}
	}
}

// DropAll empties the cache (echo 3 > /proc/sys/vm/drop_caches).
func (c *PageCache) DropAll() {
	c.entries = make(map[CacheKey]*lruNode)
	c.head, c.tail = nil, nil
}

func (c *PageCache) forEachChunk(off, n int64, fn func(chunk, bytes int64)) {
	if n <= 0 {
		return
	}
	first := off / c.chunkSize
	last := (off + n - 1) / c.chunkSize
	for chunk := first; chunk <= last; chunk++ {
		lo := chunk * c.chunkSize
		hi := lo + c.chunkSize
		if lo < off {
			lo = off
		}
		if hi > off+n {
			hi = off + n
		}
		fn(chunk, hi-lo)
	}
}

func (c *PageCache) promote(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *PageCache) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *PageCache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else if c.head == n {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else if c.tail == n {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *PageCache) evictLRU() {
	if c.tail == nil {
		return
	}
	victim := c.tail
	c.unlink(victim)
	delete(c.entries, victim.key)
}
