package storage

import "vread/internal/sim"

// Readahead is the sequential readahead above one PageCache: the guest
// kernel's over virtio-blk and the host file system's over loop-mounted
// images. Per object it detects sequential reads and keeps at most two
// windows in flight ahead of the reader, so a streaming read finds the
// device already busy on the bytes it wants next.
type Readahead struct {
	env     *sim.Env
	cache   *PageCache
	window  int64 // bytes per readahead window
	maxIO   int64 // largest single device request; 0 = no cap
	objs    map[int64]raObject
	windows sim.Pool[raWindow] // finished windows, for the next issue
}

// raObject is one object's sequential-read state.
type raObject struct {
	raSeq    int64     // next sequential offset
	raIssued int64     // readahead issued up to (exclusive)
	flight   *raWindow // in-flight windows in issue order, linked by next
}

// raWindow tracks one in-flight readahead I/O so overlapping reads wait on
// it instead of re-issuing the same disk work. A window is a record from
// the Readahead's free list: its completion step is bound once per record,
// and finish returns it.
type raWindow struct {
	r          *Readahead
	obj        int64
	start, end int64
	finished   bool
	canceled   bool // dropped while in flight: completes, but does not insert
	done       sim.Signal
	next       *raWindow
	finishFn   func()
}

// NewReadahead creates the readahead for cache with the given window size,
// capping each issued window at maxIO bytes (0 = uncapped).
func NewReadahead(env *sim.Env, cache *PageCache, window, maxIO int64) *Readahead {
	return &Readahead{env: env, cache: cache, window: window, maxIO: maxIO, objs: make(map[int64]raObject)}
}

// Pending returns the completion Signal of the first unfinished window of
// obj overlapping [off, off+n), or nil when there is none. A reader waits
// on it and calls Pending again when woken, until none is left: the
// kernel's lock_page-on-readahead behavior, so a read never re-issues disk
// work already in flight.
func (r *Readahead) Pending(obj, off, n int64) *sim.Signal {
	for w := r.objs[obj].flight; w != nil; w = w.next {
		if !w.finished && w.start < off+n && off < w.end {
			return &w.done
		}
	}
	return nil
}

// Advance records a read of [off, off+n) of obj (size bytes long) and, when
// the read continues a sequential run, issues the next window. issue
// submits a device read of the given size that calls done on completion; it
// returns false when the device refuses, and nothing is recorded.
func (r *Readahead) Advance(obj, size, off, n int64, issue func(n int64, done func()) bool) {
	o := r.objs[obj]
	r.advance(&o, obj, size, off, n, issue)
	r.objs[obj] = o
}

// advance is Advance on o, obj's state, which Advance writes back.
func (r *Readahead) advance(o *raObject, obj, size, off, n int64, issue func(n int64, done func()) bool) {
	end := off + n
	if off != o.raSeq {
		// New sequential run: re-arm and forget prior issue bookkeeping
		// (the cache may have been dropped since the last run).
		o.raSeq = end
		o.raIssued = 0
		return
	}
	o.raSeq = end
	raStart := end
	if o.raIssued > raStart {
		raStart = o.raIssued
	}
	// Keep up to two full windows in flight ahead of the reader, issuing
	// whole windows at a time.
	if raStart-end >= 2*r.window {
		return
	}
	raEnd := raStart + r.window
	if raEnd > size {
		raEnd = size
	}
	if r.maxIO > 0 && raEnd > raStart+r.maxIO {
		raEnd = raStart + r.maxIO
	}
	if raEnd <= raStart {
		return
	}
	if r.cache.Contains(obj, raStart, raEnd-raStart) {
		o.raIssued = raEnd
		return
	}
	w := r.windows.Get()
	if w.finishFn == nil {
		w.finishFn = w.finish
	}
	w.r, w.obj, w.start, w.end, w.finished, w.canceled, w.next = r, obj, raStart, raEnd, false, false, nil
	if !issue(raEnd-raStart, w.finishFn) {
		r.windows.Put(w)
		return
	}
	link := &o.flight
	for *link != nil {
		link = &(*link).next
	}
	*link = w
	o.raIssued = raEnd
}

// finish completes the window: fill the cache unless the window was
// dropped, then wake the reads waiting on it and return it to the free
// list.
//
//lint:hotpath
func (w *raWindow) finish() {
	r := w.r
	if !w.canceled {
		r.cache.Insert(w.obj, w.start, w.end-w.start)
	}
	w.finished = true
	w.done.Broadcast()
	o := r.objs[w.obj]
	for link := &o.flight; *link != nil; link = &(*link).next {
		if *link == w {
			*link = w.next
			break
		}
	}
	r.objs[w.obj] = o
	w.next = nil
	r.windows.Put(w)
}

// Drop resets every object's sequential state and cancels the in-flight
// fills: those windows still complete and reads still wait on them, but
// they no longer insert into the (just dropped) cache.
func (r *Readahead) Drop() {
	for obj, o := range r.objs {
		o.raSeq, o.raIssued = 0, 0
		for w := o.flight; w != nil; w = w.next {
			w.canceled = true
		}
		r.objs[obj] = o
	}
}
