package storage

// White-box tests for the readahead-window bookkeeping: the two-window
// pipeline, Wait on overlapping windows, the raSeq reset on non-sequential
// (backwards) reads, the device cap, and Drop's cancellation.

import (
	"testing"
	"time"

	"vread/internal/sim"
)

const (
	raChunk    = 256 << 10 // request size driving the reader
	raFileSize = 8 << 20
	raObj      = int64(42)
	raWin      = 1 << 20 // the host file system's window
)

type raFixture struct {
	env   *sim.Env
	disk  *Disk
	cache *PageCache
	ra    *Readahead
}

func newRAFixture(window, maxIO int64) *raFixture {
	env := sim.NewEnv(1)
	cache := NewPageCache("ra-test", 1<<30, 0)
	return &raFixture{
		env:   env,
		disk:  NewDisk(env, "ra-test", DiskConfig{}),
		cache: cache,
		ra:    NewReadahead(env, cache, window, maxIO),
	}
}

// run drives fn as a simulated process and then lets the env drain (so
// outstanding readahead windows complete before the test returns).
func (f *raFixture) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	f.env.Go("ra-test", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	if err := f.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test process did not finish")
	}
}

// read serves one raChunk request the way both callers do: look the range
// up, wait for an overlapping in-flight window, read what is still missing
// from the disk, then advance the readahead. It reports whether the request
// missed the cache on arrival and whether it then had to read the disk.
func (f *raFixture) read(p *sim.Proc, off int64) (missed, diskRead bool) {
	if _, miss := f.cache.Lookup(raObj, off, raChunk); miss > 0 {
		missed = true
		waitRA(p, f.ra, raObj, off, raChunk)
		if _, miss = f.cache.Lookup(raObj, off, raChunk); miss > 0 {
			diskRead = true
			readT(p, f.disk, miss)
			f.cache.Insert(raObj, off, raChunk)
		}
	}
	f.ra.Advance(raObj, raFileSize, off, raChunk, f.issue)
	return missed, diskRead
}

func (f *raFixture) issue(n int64, done func()) bool {
	f.disk.ReadAsync(n, done)
	return true
}

func (f *raFixture) state() raObject { return f.ra.objs[raObj] }

// inFlight lists obj's in-flight windows in issue order.
func (r *Readahead) inFlight(obj int64) []*raWindow {
	var ws []*raWindow
	for w := r.objs[obj].flight; w != nil; w = w.next {
		ws = append(ws, w)
	}
	return ws
}

// TestReadaheadWindowPipeline: a sequential reader keeps two readahead
// windows in flight, contiguous and non-overlapping, and stops issuing once
// two full windows are ahead of the cursor.
func TestReadaheadWindowPipeline(t *testing.T) {
	f := newRAFixture(raWin, 0)
	f.run(t, func(p *sim.Proc) {
		f.read(p, 0)
		if got := len(f.ra.inFlight(raObj)); got != 1 {
			t.Fatalf("after first read: %d windows in flight, want 1", got)
		}
		first := f.ra.inFlight(raObj)[0]
		if first.start != raChunk || first.end != raChunk+raWin {
			t.Fatalf("first window = [%d,%d), want [%d,%d)", first.start, first.end, raChunk, raChunk+raWin)
		}

		// Second read overlaps the in-flight window: Wait drains it, and
		// the next window is issued from where the first left off.
		f.read(p, raChunk)
		f.read(p, 2*raChunk)
		wins := f.ra.inFlight(raObj)
		if len(wins) != 2 {
			t.Fatalf("pipeline depth = %d windows, want 2 (%+v)", len(wins), wins)
		}
		if wins[0].end != wins[1].start {
			t.Errorf("windows not contiguous: [%d,%d) then [%d,%d)",
				wins[0].start, wins[0].end, wins[1].start, wins[1].end)
		}
		if wins[0].start < wins[1].end && wins[1].start < wins[0].end {
			t.Errorf("in-flight windows overlap: %+v", wins)
		}
		issued := f.state().raIssued

		// With two full windows ahead, the next read must not issue more.
		f.read(p, 3*raChunk)
		if f.state().raIssued != issued {
			t.Errorf("throttle failed: issued advanced %d → %d with 2 windows ahead",
				issued, f.state().raIssued)
		}
		if f.state().raSeq != 4*raChunk {
			t.Errorf("raSeq = %d, want %d", f.state().raSeq, 4*raChunk)
		}
	})
	// All windows complete once the env drains.
	if got := len(f.ra.inFlight(raObj)); got != 0 {
		t.Errorf("windows leaked after drain: %d", got)
	}
}

// TestReadaheadWaitInflight: a read overlapping an in-flight readahead
// window blocks on it instead of issuing a duplicate disk read, then hits
// the freshly filled cache.
func TestReadaheadWaitInflight(t *testing.T) {
	f := newRAFixture(raWin, 0)
	f.run(t, func(p *sim.Proc) {
		// Cold: misses, issues window [chunk, chunk+window).
		if _, diskRead := f.read(p, 0); !diskRead {
			t.Errorf("first read did not miss to the disk")
		}
		// The window covering [chunk, ...) is still in flight (1 MiB of disk
		// time has not elapsed); this read overlaps it.
		if len(f.ra.inFlight(raObj)) != 1 || f.ra.inFlight(raObj)[0].finished {
			t.Fatalf("precondition: window not in flight: %+v", f.ra.inFlight(raObj))
		}
		missed, diskRead := f.read(p, raChunk)
		if diskRead {
			t.Errorf("overlapping read re-read the disk instead of waiting")
		}
		if !missed {
			t.Errorf("overlapping read found its range cached before the window finished")
		}
	})
}

// TestReadaheadBackwardsSeekResetsSeq: a non-sequential read re-arms the
// sequential detector — raSeq follows the new cursor, the issue high-water
// mark drops, and no window is issued for the seek itself.
func TestReadaheadBackwardsSeekResetsSeq(t *testing.T) {
	f := newRAFixture(raWin, 0)
	f.run(t, func(p *sim.Proc) {
		f.read(p, 0)
		f.read(p, raChunk)
		if f.state().raIssued == 0 {
			t.Fatal("precondition: sequential run issued nothing")
		}
		inFlight := len(f.ra.inFlight(raObj))

		// Seek back to the start: reset, but never cancels in-flight I/O.
		f.read(p, 0)
		if got := f.state().raSeq; got != raChunk {
			t.Errorf("raSeq after backwards seek = %d, want %d", got, raChunk)
		}
		if got := f.state().raIssued; got != 0 {
			t.Errorf("raIssued after backwards seek = %d, want 0", got)
		}
		if got := len(f.ra.inFlight(raObj)); got != inFlight {
			t.Errorf("backwards seek changed in-flight windows: %d → %d", inFlight, got)
		}

		// Resuming sequentially re-issues from the new cursor, not from the
		// stale pre-seek high-water mark.
		f.read(p, raChunk)
		wins := f.ra.inFlight(raObj)
		if len(wins) == 0 {
			t.Fatal("no window issued after resuming the sequential run")
		}
		last := wins[len(wins)-1]
		if last.start != 2*raChunk {
			t.Errorf("resumed window starts at %d, want %d (cursor), not the stale mark", last.start, 2*raChunk)
		}
		if f.state().raIssued != last.end {
			t.Errorf("raIssued = %d, want %d", f.state().raIssued, last.end)
		}
	})
}

// TestReadaheadCapsAtMaxIO: a window larger than the device's largest
// request is issued capped to it, not refused by a device that rejects
// oversized requests (virtio-blk's TryReadAsyncT).
func TestReadaheadCapsAtMaxIO(t *testing.T) {
	const maxIO = 128 << 10
	f := newRAFixture(raWin, maxIO)
	var sizes []int64
	issue := func(n int64, done func()) bool {
		if n > maxIO {
			return false
		}
		sizes = append(sizes, n)
		f.disk.ReadAsync(n, done)
		return true
	}
	f.run(t, func(p *sim.Proc) {
		f.ra.Advance(raObj, raFileSize, 0, raChunk, issue)
		wins := f.ra.inFlight(raObj)
		if len(wins) != 1 {
			t.Fatalf("%d windows in flight, want 1 capped window", len(wins))
		}
		if w := wins[0]; w.start != raChunk || w.end != raChunk+maxIO {
			t.Errorf("window = [%d,%d), want [%d,%d)", w.start, w.end, raChunk, raChunk+maxIO)
		}
		if f.state().raIssued != raChunk+maxIO {
			t.Errorf("raIssued = %d, want %d", f.state().raIssued, raChunk+maxIO)
		}
	})
	if len(sizes) != 1 || sizes[0] != maxIO {
		t.Errorf("device saw requests %v, want one of %d bytes", sizes, maxIO)
	}
	if !f.cache.Contains(raObj, raChunk, maxIO) {
		t.Error("capped window did not fill the cache")
	}
}

// TestReadaheadDropCancelsInflight: Drop cancels an in-flight window — a
// read overlapping it still waits for it, but the completed window does not
// refill the dropped cache — and resets the sequential state, so the next
// read at offset 0 continues a sequential run.
func TestReadaheadDropCancelsInflight(t *testing.T) {
	f := newRAFixture(raWin, 0)
	f.run(t, func(p *sim.Proc) {
		f.ra.Advance(raObj, raFileSize, 0, raChunk, f.issue)
		if len(f.ra.inFlight(raObj)) != 1 {
			t.Fatalf("precondition: %d windows in flight, want 1", len(f.ra.inFlight(raObj)))
		}
		w := f.ra.inFlight(raObj)[0]
		f.cache.DropAll()
		f.ra.Drop()
		if !w.canceled || w.finished {
			t.Fatalf("after Drop: canceled=%v finished=%v, want an in-flight canceled window", w.canceled, w.finished)
		}

		start := f.env.Now()
		waitRA(p, f.ra, raObj, raChunk, raChunk)
		if !w.finished || f.env.Now() == start {
			t.Errorf("overlapping read did not wait for the canceled window")
		}
		if f.cache.count != 0 {
			t.Errorf("canceled window refilled the cache: %d chunks", f.cache.count)
		}

		f.ra.Advance(raObj, raFileSize, 0, raChunk, f.issue)
		if got := f.state().raSeq; got != raChunk {
			t.Errorf("raSeq = %d, want %d", got, raChunk)
		}
		wins := f.ra.inFlight(raObj)
		if len(wins) != 1 || wins[0].start != raChunk || wins[0].canceled {
			t.Errorf("read at 0 after Drop did not continue the run: in flight %+v", wins)
		}
	})
	if !f.cache.Contains(raObj, raChunk, raWin) {
		t.Error("window issued after Drop did not fill the cache")
	}
}

// FuzzReadahead drives reads at fuzzed offsets and sizes over two objects,
// Drops and engine steps against one Readahead, and checks its invariants:
// windows issued within one sequential run (no re-arm or Drop between them)
// never overlap while in flight; no window starts two windows or more ahead
// of the cursor; each window is at most min(window, max I/O) bytes and lies
// inside its object; a canceled window never inserts; nothing is left in
// flight once the env drains. Each op is three bytes: kind, offset, size.
func FuzzReadahead(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{0, 0, 3, 0, 4, 3, 0, 8, 3, 0, 12, 3, 3, 40, 0})
	f.Add(uint8(2), uint8(1), []byte{0, 0, 7, 0, 8, 7, 0, 0, 7, 0, 8, 7, 2, 0, 0, 0, 0, 7})
	f.Add(uint8(8), uint8(3), []byte{1, 0, 15, 0, 0, 1, 2, 0, 0, 1, 16, 15, 3, 255, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, windowUnits, maxIOUnits uint8, ops []byte) {
		const (
			unit = 4 << 10
			size = 200 * unit
		)
		window := int64(windowUnits%16+1) * unit
		maxIO := int64(maxIOUnits%8) * unit // 0 = uncapped
		env := sim.NewEnv(1)
		cache := NewPageCache("fuzz", 4*size, unit)
		disk := NewDisk(env, "fuzz", DiskConfig{})
		ra := NewReadahead(env, cache, window, maxIO)
		limit := window
		if maxIO > 0 && maxIO < limit {
			limit = maxIO
		}

		run := map[int64]int{}       // sequential run per object
		runOf := map[*raWindow]int{} // the run each window was issued in
		outstanding, depth := 0, 3   // the device refuses beyond depth
		checkFlight := func(obj int64) {
			flight := ra.inFlight(obj)
			for i, a := range flight {
				for _, b := range flight[i+1:] {
					if runOf[a] == runOf[b] && a.start < b.end && b.start < a.end {
						t.Fatalf("obj %d: in-flight windows [%d,%d) and [%d,%d) of one run overlap",
							obj, a.start, a.end, b.start, b.end)
					}
				}
			}
		}
		advance := func(obj, off, n int64) {
			if off != ra.objs[obj].raSeq {
				run[obj]++
			}
			before := len(ra.inFlight(obj))
			var issued **raWindow
			ra.Advance(obj, size, off, n, func(n int64, done func()) bool {
				if outstanding >= depth {
					return false
				}
				outstanding++
				cell := new(*raWindow)
				issued = cell
				disk.ReadAsync(n, func() {
					outstanding--
					w := *cell
					chunks := cache.count
					done()
					if w.canceled && cache.count != chunks {
						t.Fatalf("obj %d: canceled window [%d,%d) inserted into the cache", obj, w.start, w.end)
					}
					if !w.canceled && !cache.Contains(obj, w.start, w.end-w.start) {
						t.Fatalf("obj %d: window [%d,%d) completed without filling the cache", obj, w.start, w.end)
					}
				})
				return true
			})
			if issued == nil {
				if len(ra.inFlight(obj)) != before {
					t.Fatalf("obj %d: window recorded without a device request", obj)
				}
				return
			}
			flight := ra.inFlight(obj)
			if len(flight) != before+1 {
				t.Fatalf("obj %d: device accepted a window but %d → %d in flight", obj, before, len(flight))
			}
			w := flight[before]
			*issued = w
			runOf[w] = run[obj]
			if w.start-(off+n) >= 2*window {
				t.Fatalf("obj %d: window [%d,%d) starts ≥ 2 windows past cursor %d", obj, w.start, w.end, off+n)
			}
			if w.end-w.start > limit || w.start < 0 || w.end > size || w.end <= w.start {
				t.Fatalf("obj %d: window [%d,%d) exceeds %d bytes or object size %d", obj, w.start, w.end, limit, size)
			}
			checkFlight(obj)
		}

		env.Go("fuzz", func(p *sim.Proc) {
			for i := 0; i+2 < len(ops); i += 3 {
				kind, a, b := ops[i], int64(ops[i+1]), int64(ops[i+2])
				switch kind % 4 {
				case 0, 1:
					obj := int64(kind/4%2 + 1)
					off := a % (size / unit) * unit
					n := (b%16 + 1) * unit
					if off+n > size {
						n = size - off
					}
					if _, miss := cache.Lookup(obj, off, n); miss > 0 {
						waitRA(p, ra, obj, off, n)
						for _, w := range ra.inFlight(obj) {
							if !w.finished && w.start < off+n && off < w.end {
								t.Fatalf("obj %d: the wait returned with [%d,%d) in flight over [%d,%d)", obj, w.start, w.end, off, off+n)
							}
						}
						if _, miss = cache.Lookup(obj, off, n); miss > 0 {
							readT(p, disk, miss)
							cache.Insert(obj, off, n)
						}
					}
					advance(obj, off, n)
				case 2:
					cache.DropAll()
					ra.Drop()
					run[1]++
					run[2]++
				case 3:
					p.Sleep(time.Duration(a) * 10 * time.Microsecond)
				}
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		for obj := range ra.objs {
			if n := len(ra.inFlight(obj)); n != 0 {
				t.Fatalf("obj %d: %d windows still in flight after the env drained", obj, n)
			}
		}
		if outstanding != 0 {
			t.Fatalf("%d device requests outstanding after the env drained", outstanding)
		}
	})
}
