package storage

import "vread/internal/sim"

// Readahead is the sequential readahead above one PageCache: the guest
// kernel's over virtio-blk and the host file system's over loop-mounted
// images. Per object it detects sequential reads and keeps at most two
// windows in flight ahead of the reader, so a streaming read finds the
// device already busy on the bytes it wants next.
type Readahead struct {
	env    *sim.Env
	cache  *PageCache
	window int64 // bytes per readahead window
	maxIO  int64 // largest single device request; 0 = no cap
	objs   map[int64]*raObject
}

// raObject is one object's sequential-read state.
type raObject struct {
	raSeq    int64 // next sequential offset
	raIssued int64 // readahead issued up to (exclusive)
	raFlight []*raWindow
}

// raWindow tracks one in-flight readahead I/O so overlapping reads wait on
// it instead of re-issuing the same disk work.
type raWindow struct {
	start, end int64
	finished   bool
	canceled   bool // dropped while in flight: completes, but does not insert
	done       sim.Signal
}

// NewReadahead creates the readahead for cache with the given window size,
// capping each issued window at maxIO bytes (0 = uncapped).
func NewReadahead(env *sim.Env, cache *PageCache, window, maxIO int64) *Readahead {
	return &Readahead{env: env, cache: cache, window: window, maxIO: maxIO, objs: make(map[int64]*raObject)}
}

func (r *Readahead) object(obj int64) *raObject {
	o := r.objs[obj]
	if o == nil {
		o = &raObject{}
		r.objs[obj] = o
	}
	return o
}

// Pending returns the completion Signal of the first unfinished window of
// obj overlapping [off, off+n), or nil when there is none. A reader waits
// on it and calls Pending again when woken, until none is left: the
// kernel's lock_page-on-readahead behavior, so a read never re-issues disk
// work already in flight.
func (r *Readahead) Pending(obj, off, n int64) *sim.Signal {
	o := r.objs[obj]
	if o == nil {
		return nil
	}
	for _, w := range o.raFlight {
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
	o := r.object(obj)
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
	w := &raWindow{start: raStart, end: raEnd}
	if issue(raEnd-raStart, func() { r.finish(obj, o, w) }) {
		o.raFlight = append(o.raFlight, w)
		o.raIssued = raEnd
	}
}

// finish completes window w of obj: fill the cache unless the window was
// dropped, then wake the reads waiting on it.
func (r *Readahead) finish(obj int64, o *raObject, w *raWindow) {
	if !w.canceled {
		r.cache.Insert(obj, w.start, w.end-w.start)
	}
	w.finished = true
	w.done.Broadcast()
	for i, cand := range o.raFlight {
		if cand == w {
			o.raFlight = append(o.raFlight[:i], o.raFlight[i+1:]...)
			return
		}
	}
}

// Drop resets every object's sequential state and cancels the in-flight
// fills: those windows still complete and reads still wait on them, but
// they no longer insert into the (just dropped) cache.
func (r *Readahead) Drop() {
	for _, o := range r.objs {
		o.raSeq, o.raIssued = 0, 0
		for _, w := range o.raFlight {
			w.canceled = true
		}
	}
}
