package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"vread/internal/faults"
	"vread/internal/sim"
	"vread/internal/trace"
)

func TestDiskReadTiming(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewDisk(env, "ssd", DiskConfig{})
	var done time.Duration
	env.Go("p", func(p *sim.Proc) {
		readT(p, d, 500_000_000) // 500MB at 500MB/s = 1s + 100µs latency
		done = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := time.Second + 100*time.Microsecond
	if diff := done - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("read finished at %v, want ~%v", done, want)
	}
	if s := d.Stats(); s.Reads != 1 || s.BytesRead != 500_000_000 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDiskFIFOSerialization(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewDisk(env, "ssd", DiskConfig{ReadLatency: time.Millisecond, ReadBandwidth: 1_000_000_000})
	var first, second time.Duration
	env.Go("a", func(p *sim.Proc) {
		readT(p, d, 0)
		first = env.Now()
	})
	env.Go("b", func(p *sim.Proc) {
		readT(p, d, 0)
		second = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if first != time.Millisecond || second != 2*time.Millisecond {
		t.Fatalf("completions at %v, %v; want 1ms, 2ms (FIFO)", first, second)
	}
}

// TestDiskWrite: WriteAsyncT counts the write, runs onDone at completion and
// times a "write" span from submit to completion on the request trace.
func TestDiskWrite(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewDisk(env, "ssd", DiskConfig{})
	tr := trace.NewTracer(env, 1).Request("w")
	var done time.Duration
	d.WriteAsyncT(tr, 1_000_000, func() { done = env.Now() })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Writes != 1 || s.BytesWritten != 1_000_000 {
		t.Fatalf("stats = %+v", s)
	}
	if sp := tr.Spans; done == 0 || len(sp) != 1 || sp[0].Name != "write" || sp[0].Start != 0 || sp[0].End != done || sp[0].Bytes != 1_000_000 {
		t.Fatalf("write done at %v, spans %+v; want one write span over [0, done]", done, sp)
	}
	d.stats = DiskStats{}
	if s := d.Stats(); s.Writes != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
}

func TestCacheMissThenHit(t *testing.T) {
	c := NewPageCache("guest", 1<<20, 0) // 1 MiB = 16 chunks of 64 KiB
	hit, miss := c.Lookup(1, 0, 128<<10)
	if hit != 0 || miss != 128<<10 {
		t.Fatalf("cold lookup hit=%d miss=%d", hit, miss)
	}
	c.Insert(1, 0, 128<<10)
	hit, miss = c.Lookup(1, 0, 128<<10)
	if hit != 128<<10 || miss != 0 {
		t.Fatalf("warm lookup hit=%d miss=%d", hit, miss)
	}
	// Different object misses.
	hit, miss = c.Lookup(2, 0, 64<<10)
	if hit != 0 || miss != 64<<10 {
		t.Fatalf("other-object lookup hit=%d miss=%d", hit, miss)
	}
}

func TestCachePartialHit(t *testing.T) {
	c := NewPageCache("guest", 1<<20, 0)
	c.Insert(1, 0, 64<<10) // exactly chunk 0
	hit, miss := c.Lookup(1, 0, 128<<10)
	if hit != 64<<10 || miss != 64<<10 {
		t.Fatalf("partial lookup hit=%d miss=%d", hit, miss)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewPageCache("guest", 4*64<<10, 0) // 4 chunks
	for i := int64(0); i < 4; i++ {
		c.Insert(1, i*64<<10, 64<<10)
	}
	// Touch chunk 0 so chunk 1 is LRU.
	c.Lookup(1, 0, 64<<10)
	// Insert a 5th chunk; chunk 1 must be evicted.
	c.Insert(1, 4*64<<10, 64<<10)
	if !c.Contains(1, 0, 64<<10) {
		t.Fatal("recently-used chunk 0 evicted")
	}
	if c.Contains(1, 64<<10, 64<<10) {
		t.Fatal("LRU chunk 1 survived eviction")
	}
	if c.count != 4 {
		t.Fatalf("Len = %d, want 4", c.count)
	}
}

func TestCacheInvalidateObject(t *testing.T) {
	c := NewPageCache("host", 1<<20, 0)
	c.Insert(1, 0, 128<<10)
	c.Insert(2, 0, 64<<10)
	c.InvalidateObject(1)
	if c.Contains(1, 0, 64<<10) {
		t.Fatal("invalidated object still cached")
	}
	if !c.Contains(2, 0, 64<<10) {
		t.Fatal("other object dropped by InvalidateObject")
	}
	c.DropAll()
	if c.count != 0 {
		t.Fatalf("Len after DropAll = %d", c.count)
	}
}

func TestCacheStatsAccumulate(t *testing.T) {
	c := NewPageCache("g", 1<<20, 0)
	c.Lookup(1, 0, 100)
	c.Insert(1, 0, 100)
	c.Lookup(1, 0, 100)
	s := c.Stats()
	if s.MissBytes != 100 || s.HitBytes != 100 {
		t.Fatalf("stats = %+v", s)
	}
	c.stats = CacheStats{}
	if s := c.Stats(); s.HitBytes != 0 || s.MissBytes != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
}

func TestCacheUnalignedRanges(t *testing.T) {
	c := NewPageCache("g", 1<<20, 0)
	// Insert an unaligned range; the chunks it touches become cached whole.
	c.Insert(1, 1000, 100)
	hit, miss := c.Lookup(1, 0, 64<<10)
	if hit != 64<<10 || miss != 0 {
		t.Fatalf("chunk-0 lookup after unaligned insert hit=%d miss=%d", hit, miss)
	}
}

// Property: hit+miss always equals the requested length, and Lookup after
// Insert of the same range is a full hit, for arbitrary ranges.
func TestCacheLookupInsertProperty(t *testing.T) {
	f := func(offRaw, nRaw uint32) bool {
		off := int64(offRaw % (1 << 20))
		n := int64(nRaw%(1<<18)) + 1
		c := NewPageCache("g", 1<<30, 0) // big enough to avoid eviction
		hit, miss := c.Lookup(9, off, n)
		if hit != 0 || hit+miss != n {
			return false
		}
		c.Insert(9, off, n)
		hit, miss = c.Lookup(9, off, n)
		return hit == n && miss == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache never holds more than its capacity in chunks.
func TestCacheCapacityProperty(t *testing.T) {
	f := func(inserts []uint16) bool {
		c := NewPageCache("g", 8*64<<10, 0) // 8 chunks
		for _, ins := range inserts {
			c.Insert(int64(ins%4), int64(ins)*13, 64<<10)
			if c.count > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDiskSlowFaultAddsLatency(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewDisk(env, "ssd", DiskConfig{})
	plan := faults.NewPlan(env)
	plan.Set(faults.Rule{Point: faults.DiskReadSlow, Prob: 1, Delay: 5 * time.Millisecond})
	d.InjectFaults(plan)
	var done time.Duration
	env.Go("p", func(p *sim.Proc) {
		readT(p, d, 0)
		done = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := 5*time.Millisecond + 100*time.Microsecond
	if done != want {
		t.Fatalf("faulted read finished at %v, want %v", done, want)
	}
	if plan.Fired(faults.DiskReadSlow) != 1 {
		t.Fatalf("fired = %d", plan.Fired(faults.DiskReadSlow))
	}
}

func TestDiskNilPlanUnchanged(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewDisk(env, "ssd", DiskConfig{})
	d.InjectFaults(nil)
	var done time.Duration
	env.Go("p", func(p *sim.Proc) {
		readT(p, d, 0)
		done = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 100*time.Microsecond {
		t.Fatalf("read finished at %v, want bare latency", done)
	}
}

// readT blocks p for one read of n bytes, as a Proc reader of the disk does.
func readT(p *sim.Proc, d *Disk, n int64) {
	d.ReadAsync(n, p.Arm())
	p.Await()
}

// waitRA blocks p while a readahead window of obj overlaps [off, off+n).
func waitRA(p *sim.Proc, ra *Readahead, obj, off, n int64) {
	for s := ra.Pending(obj, off, n); s != nil; s = ra.Pending(obj, off, n) {
		s.Wait(p)
	}
}

// TestCacheMatchesReferenceLRU runs random lookups, inserts, invalidations
// and drops against the cache and against a plain most-recent-first list of
// chunk keys, and requires the same hits and misses and the same LRU order
// after every operation: the paged index and node reuse must leave exactly
// the chunk-granular LRU.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	const chunk = 1000
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capChunks := rng.Intn(40) + 1
		c := NewPageCache("ref", int64(capChunks)*chunk, chunk)
		var model []CacheKey // most recent first
		find := func(k CacheKey) int {
			for i, m := range model {
				if m == k {
					return i
				}
			}
			return -1
		}
		touch := func(i int) {
			k := model[i]
			model = append(model[:i], model[i+1:]...)
			model = append([]CacheKey{k}, model...)
		}
		for op := 0; op < 2000; op++ {
			obj, off, n := int64(rng.Intn(4)), int64(rng.Intn(60*chunk)), int64(rng.Intn(8*chunk))
			first, last := off/chunk, (off+n-1)/chunk
			switch rng.Intn(20) {
			case 0:
				c.InvalidateObject(obj)
				kept := model[:0]
				for _, k := range model {
					if k.Object != obj {
						kept = append(kept, k)
					}
				}
				model = kept
			case 1:
				c.DropAll()
				model = nil
			case 2, 3, 4, 5, 6, 7, 8:
				hit, miss := c.Lookup(obj, off, n)
				var wantHit int64
				for ch := first; n > 0 && ch <= last; ch++ {
					if i := find(CacheKey{obj, ch}); i >= 0 {
						touch(i)
						wantHit += min((ch+1)*chunk, off+n) - max(ch*chunk, off)
					}
				}
				if hit != wantHit || hit+miss != max(n, 0) {
					t.Fatalf("seed %d op %d: Lookup = %d hit %d miss, want %d hit of %d", seed, op, hit, miss, wantHit, n)
				}
			default:
				c.Insert(obj, off, n)
				for ch := first; n > 0 && ch <= last; ch++ {
					if i := find(CacheKey{obj, ch}); i >= 0 {
						touch(i)
						continue
					}
					if len(model) >= capChunks {
						model = model[:len(model)-1]
					}
					model = append([]CacheKey{{obj, ch}}, model...)
				}
			}
			i := 0
			for node := c.head; node != nil; node = node.next {
				if i >= len(model) || node.key != model[i] {
					t.Fatalf("seed %d op %d: LRU position %d differs from the reference", seed, op, i)
				}
				i++
			}
			if i != len(model) || c.count != len(model) {
				t.Fatalf("seed %d op %d: %d nodes listed, %d counted, want %d", seed, op, i, c.count, len(model))
			}
		}
	}
}
