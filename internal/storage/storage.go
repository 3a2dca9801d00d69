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
	d.submitT(tr, "read", n, lat, d.cfg.ReadBandwidth, onDone)
	d.stats.Reads++
	d.stats.BytesRead += n
}

// WriteAsyncT submits a write of n bytes with a "disk write" span (submit →
// completion) on the request trace; onDone, if not nil, fires on completion.
func (d *Disk) WriteAsyncT(tr *trace.Trace, n int64, onDone func()) {
	d.submitT(tr, "write", n, writeLatency, d.cfg.WriteBandwidth, onDone)
	d.stats.Writes++
	d.stats.BytesWritten += n
}

// submitT submits a request under a span called name on tr. An untraced
// request hands onDone to the device as it is, wrapping nothing; a nil
// onDone still completes as one event.
func (d *Disk) submitT(tr *trace.Trace, name string, n int64, lat time.Duration, bw int64, onDone func()) {
	if onDone == nil {
		onDone = noop
	}
	if tr == nil {
		d.submit(n, lat, bw, onDone)
		return
	}
	sp := tr.Begin(trace.LayerDisk, name)
	d.submit(n, lat, bw, func() {
		tr.EndSpan(sp, n)
		onDone()
	})
}

func noop() {}

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
//
// Cached chunks are indexed by page: one map entry per pageChunks
// consecutive chunks of an object, so a streaming read grows the map once
// per page, not once per chunk. Nodes and pages are records from the
// cache's free lists: a full cache reuses its evicted node, and a page
// that empties goes back for the next one.
type PageCache struct {
	name      string
	chunkSize int64
	capacity  int // max chunks
	count     int // chunks cached
	pages     map[pageKey]*cachePage
	head      *lruNode          // most recent
	tail      *lruNode          // least recent
	free      sim.Pool[lruNode] // nodes of invalidated chunks
	freePages sim.Pool[cachePage]
	stats     CacheStats
}

type lruNode struct {
	key        CacheKey
	prev, next *lruNode
}

// pageChunks is how many consecutive chunks of an object one index page
// holds.
const pageChunks = 16

type pageKey struct {
	object, page int64
}

type cachePage struct {
	nodes [pageChunks]*lruNode
	n     int // nodes present
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
		pages:     make(map[pageKey]*cachePage),
	}
}

// Stats returns a copy of the byte counters.
func (c *PageCache) Stats() CacheStats { return c.stats }

// Lookup classifies the byte range [off, off+n) of object into cached and
// uncached bytes, promoting hits in LRU order. It does not insert.
//
//lint:hotpath
func (c *PageCache) Lookup(object, off, n int64) (hit, miss int64) {
	first, last := c.chunks(off, n)
	for chunk := first; chunk <= last; chunk++ {
		b := c.bytesIn(chunk, off, n)
		if node := c.node(object, chunk); node != nil {
			c.promote(node)
			hit += b
		} else {
			miss += b
		}
	}
	c.stats.HitBytes += hit
	c.stats.MissBytes += miss
	return hit, miss
}

// Insert marks the byte range [off, off+n) of object cached. A full cache
// evicts its least recent chunk and reuses that node for the new one, which
// leaves the LRU order that inserting first and evicting after would; a
// cache with room takes a node from its free list.
//
//lint:hotpath
func (c *PageCache) Insert(object, off, n int64) {
	first, last := c.chunks(off, n)
	for chunk := first; chunk <= last; chunk++ {
		if node := c.node(object, chunk); node != nil {
			c.promote(node)
			continue
		}
		var node *lruNode
		if c.count >= c.capacity {
			node = c.evictLRU()
		} else {
			node = c.free.Get()
		}
		node.key = CacheKey{object, chunk}
		c.add(node)
		c.pushFront(node)
	}
}

// Contains reports whether the full range is cached, without promoting or
// counting stats.
func (c *PageCache) Contains(object, off, n int64) bool {
	first, last := c.chunks(off, n)
	for chunk := first; chunk <= last; chunk++ {
		if c.node(object, chunk) == nil {
			return false
		}
	}
	return true
}

// InvalidateObject drops every cached chunk of object.
func (c *PageCache) InvalidateObject(object int64) {
	for key, p := range c.pages {
		if key.object != object {
			continue
		}
		for i, node := range p.nodes {
			if node != nil {
				c.unlink(node)
				c.free.Put(node)
				p.nodes[i] = nil
			}
		}
		c.count -= p.n
		p.n = 0
		delete(c.pages, key)
		c.freePages.Put(p)
	}
}

// DropAll empties the cache (echo 3 > /proc/sys/vm/drop_caches).
func (c *PageCache) DropAll() {
	c.pages = make(map[pageKey]*cachePage)
	c.count = 0
	c.head, c.tail = nil, nil
}

// node returns the cached node of a chunk, or nil.
func (c *PageCache) node(object, chunk int64) *lruNode {
	if p := c.pages[pageKey{object, chunk / pageChunks}]; p != nil {
		return p.nodes[chunk%pageChunks]
	}
	return nil
}

// add indexes a node under its key, taking a page from the free list when
// its page is new.
func (c *PageCache) add(node *lruNode) {
	key := pageKey{node.key.Object, node.key.Chunk / pageChunks}
	p := c.pages[key]
	if p == nil {
		p = c.freePages.Get()
		c.pages[key] = p
	}
	p.nodes[node.key.Chunk%pageChunks] = node
	p.n++
	c.count++
}

// remove drops a node from the index, returning its page to the free list
// when it empties.
func (c *PageCache) remove(node *lruNode) {
	key := pageKey{node.key.Object, node.key.Chunk / pageChunks}
	p := c.pages[key]
	p.nodes[node.key.Chunk%pageChunks] = nil
	c.count--
	if p.n--; p.n == 0 {
		delete(c.pages, key)
		c.freePages.Put(p)
	}
}

// chunks returns the first and last chunk of [off, off+n); last < first
// for an empty range.
func (c *PageCache) chunks(off, n int64) (first, last int64) {
	if n <= 0 {
		return 0, -1
	}
	return off / c.chunkSize, (off + n - 1) / c.chunkSize
}

// bytesIn returns how many bytes of [off, off+n) fall in chunk.
func (c *PageCache) bytesIn(chunk, off, n int64) int64 {
	lo := max(chunk*c.chunkSize, off)
	hi := min((chunk+1)*c.chunkSize, off+n)
	return hi - lo
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

// evictLRU drops the least recent chunk, which must exist, and returns its
// node.
func (c *PageCache) evictLRU() *lruNode {
	victim := c.tail
	c.unlink(victim)
	c.remove(victim)
	return victim
}
