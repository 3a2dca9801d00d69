// Package sim implements the deterministic discrete-event engine that every
// other subsystem of the vRead reproduction runs on.
//
// The engine combines two classic ideas:
//
//   - a virtual clock driven by an event queue ordered by (time, sequence
//     number), so runs are bit-reproducible. The queue is a 4-ary min-heap
//     for events in the future plus a FIFO ready lane for events scheduled
//     with zero delay, which fire at the current instant without a sift;
//   - coroutine processes: each Proc is an iter.Pull coroutine that an event
//     resumes and that parks by yielding back to it, so at most one of the
//     engine loop and the Procs executes at a time. Processes therefore read
//     like straight-line imperative code (the HDFS datanode loop looks like a
//     datanode loop) while remaining fully deterministic.
//
// Virtual time is a time.Duration measured from the start of the run. No
// component of the simulator may consult the wall clock.
package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// Env is a simulation environment: a virtual clock plus the pending-event
// queue and the set of live processes. An Env is not safe for concurrent use;
// the whole point is that nothing in a simulation is concurrent in real time.
type Env struct {
	now    time.Duration
	events eventHeap // events due after the instant they were scheduled at
	// ready holds the zero-delay events from ready[rhead:] in Schedule
	// order. Every one of them is due now: the clock advances only when the
	// lane is empty.
	ready   []*event
	rhead   int
	free    Pool[event] // recycled events; Schedule pops here before allocating
	live    int         // scheduled events that are neither fired nor cancelled
	ncancel int         // cancelled events still occupying heap or lane slots
	fired   uint64      // events executed since NewEnv
	resumes uint64      // Proc resumes (dispatches into a live coroutine) since NewEnv
	seq     uint64
	rng     *rand.Rand
	procs   map[*Proc]struct{}
	current *Proc

	stopped bool
	procErr *procPanic
}

// NewEnv returns an empty environment with the virtual clock at zero. The
// seed feeds the environment's deterministic random source (used only by
// fault plans and chaos storms, never by the engine itself).
func NewEnv(seed int64) *Env {
	return &Env{
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Stop makes the current Run call return after the event being processed
// completes. Pending events remain queued.
func (e *Env) Stop() { e.stopped = true }

// Schedule runs fn at virtual time Now()+after. It returns a Timer that can
// cancel the callback as long as it has not fired.
//
// The returned Timer is a value: holding one does not pin the event, and at
// steady state (events recycled through the free list, heap capacity grown
// to the working set) a Schedule/fire cycle performs zero heap allocations.
//
//lint:hotpath
func (e *Env) Schedule(after time.Duration, fn func()) Timer {
	if after < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", after))
	}
	ev := e.free.Get()
	ev.at = e.now + after
	ev.seq = e.nextSeq()
	ev.fn = fn
	if after == 0 {
		e.pushReady(ev)
	} else {
		e.events.push(ev)
	}
	e.live++
	return Timer{env: e, ev: ev, gen: ev.gen}
}

// pushReady appends ev to the ready lane. When the lane is full and at
// least half of it is consumed, its live tail slides down first, so a long
// same-instant chain reuses the slice instead of growing it without bound.
func (e *Env) pushReady(ev *event) {
	if len(e.ready) == cap(e.ready) && e.rhead > 0 && 2*e.rhead >= len(e.ready) {
		n := copy(e.ready, e.ready[e.rhead:])
		clear(e.ready[n:])
		e.ready = e.ready[:n]
		e.rhead = 0
	}
	e.ready = append(e.ready, ev) //lint:allow hotalloc(lane growth amortized: capacity tracks the largest same-instant burst)
}

// queued returns the number of slots the heap and the lane hold, tombstones
// included.
func (e *Env) queued() int { return len(e.events) + len(e.ready) - e.rhead }

func (e *Env) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// recycle invalidates every outstanding Timer for ev (generation bump) and
// returns it to the free list for the next Schedule.
func (e *Env) recycle(ev *event) {
	ev.fn = nil
	ev.canceled = false
	ev.gen++
	e.free.Put(ev)
}

// Pending returns the number of scheduled events that have neither fired nor
// been cancelled — the real queue depth, regardless of how many cancelled
// timers still occupy heap slots awaiting compaction.
func (e *Env) Pending() int { return e.live }

// Fired returns the total number of events executed since NewEnv — the
// denominator of the engine's events/second throughput.
func (e *Env) Fired() uint64 { return e.fired }

// Resumes returns the number of Proc coroutine resumes since NewEnv.
func (e *Env) Resumes() uint64 { return e.resumes }

// Run processes events until the queue is empty, Stop is called, or a
// process panics. It returns the first process panic as an error;
// engine-level misuse panics directly.
func (e *Env) Run() error { return e.run(-1) }

// RunUntil processes events with timestamps <= t, then advances the clock to
// exactly t (if the run was not stopped earlier).
func (e *Env) RunUntil(t time.Duration) error {
	if t < e.now {
		return fmt.Errorf("sim: RunUntil(%v) is in the past (now %v)", t, e.now)
	}
	err := e.run(t)
	if err == nil && !e.stopped && e.now < t {
		e.now = t
	}
	return err
}

// RunFor is RunUntil(Now()+d).
func (e *Env) RunFor(d time.Duration) error { return e.RunUntil(e.now + d) }

//lint:hotpath
func (e *Env) run(deadline time.Duration) error {
	e.stopped = false
	for !e.stopped {
		// The next event in (at, seq) order: a heap event due now was
		// scheduled before the clock reached now, so it precedes every lane
		// event, which was scheduled at now; otherwise the lane head; once
		// the lane is empty, the heap top.
		var ev *event
		switch {
		case len(e.events) > 0 && e.events[0].at == e.now:
			ev = e.events.pop()
		case e.rhead < len(e.ready):
			ev = e.ready[e.rhead]
			e.ready[e.rhead] = nil
			if e.rhead++; e.rhead == len(e.ready) {
				e.ready = e.ready[:0]
				e.rhead = 0
			}
		case len(e.events) > 0:
			if deadline >= 0 && e.events[0].at > deadline {
				return nil
			}
			ev = e.events.pop()
			if ev.at < e.now {
				panic(fmt.Sprintf("sim: event scheduled in the past (%v < %v)", ev.at, e.now))
			}
		default:
			return nil
		}
		if ev.canceled {
			e.ncancel--
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		fn := ev.fn
		e.live--
		e.fired++
		// Recycle before invoking: the generation bump makes any Timer still
		// pointing at ev stale, so a callback can neither cancel the event
		// that is firing nor resurrect it once the struct is reused.
		e.recycle(ev)
		fn()
		if e.fired%gcYieldEvents == 0 {
			runtime.Gosched()
		}
		if e.procErr != nil {
			pe := e.procErr
			e.procErr = nil
			return pe
		}
	}
	return nil
}

// gcYieldEvents is how many fired events Env.run lets pass between calls to
// runtime.Gosched. A Proc handoff is a coroutine switch that never enters
// the Go scheduler, so with GOMAXPROCS=1 the GC's background mark worker
// would otherwise get no CPU until the run ends, all marking would fall to
// allocation assists, and the heap would overshoot its goal. One scheduling
// point per 1024 events lets the worker run at a negligible cost per event.
const gcYieldEvents = 1024

// NextAt returns the timestamp of the next pending event, clamped to the
// clock, and whether any event is pending at all. A non-empty ready lane
// means an event due now. Otherwise the bound is exact when the heap top is
// live; when it is a cancelled tombstone the bound is still a conservative
// lower bound, which is all the shard coordinator needs to size an epoch
// window. No pending event precedes the clock, so the clamp only backs the
// coordinator's rule that an epoch never opens in the past.
func (e *Env) NextAt() (int64, bool) {
	if e.rhead < len(e.ready) {
		return int64(e.now), true
	}
	if len(e.events) == 0 {
		return -1, false
	}
	at := e.events[0].at
	if at < e.now {
		at = e.now
	}
	return int64(at), true
}

// compact filters cancelled events out of the heap and the ready lane in
// place, restores the heap property and keeps the lane's order. Called when
// cancelled entries outnumber live ones, so a cancel-heavy workload
// (timeouts that almost always get cancelled) keeps the queue proportional
// to the real queue depth instead of to its history.
func (e *Env) compact() {
	kept := e.events[:0]
	for _, ev := range e.events {
		if ev.canceled {
			e.recycle(ev)
		} else {
			kept = append(kept, ev) //lint:allow hotalloc(filters in place: capacity bounded by the source slice, never grows)
		}
	}
	for i := len(kept); i < len(e.events); i++ {
		e.events[i] = nil
	}
	e.events = kept
	e.events.init()
	lane := e.ready[:0]
	for _, ev := range e.ready[e.rhead:] {
		if ev.canceled {
			e.recycle(ev)
		} else {
			lane = append(lane, ev) //lint:allow hotalloc(filters in place: capacity bounded by the source slice, never grows)
		}
	}
	clear(e.ready[len(lane):])
	e.ready = lane
	e.rhead = 0
	e.ncancel = 0
}

// ---------------------------------------------------------------------------
// Events and timers.

// event is one heap entry. Events are pooled: after firing or cancellation
// the struct returns to the Env's free list and gen is bumped, so Timers
// from an earlier lifetime can never act on a reused event.
type event struct {
	at       time.Duration
	seq      uint64
	gen      uint64
	fn       func()
	canceled bool
}

// Timer identifies a scheduled callback and allows cancelling it. The zero
// Timer (and a nil *Timer) is valid and refers to no event. A Timer becomes
// stale — all methods turn into no-ops — once its callback fires or Cancel
// succeeds; the generation counter makes staleness detection safe even after
// the underlying event struct has been recycled for a new callback.
type Timer struct {
	env *Env
	ev  *event
	gen uint64
}

// pending reports whether the timer still refers to its original, un-fired,
// un-cancelled event.
func (t *Timer) pending() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen && !t.ev.canceled && t.ev.fn != nil
}

// Cancel prevents the callback from firing. It reports whether the callback
// was still pending. Cancelling an already-fired or already-cancelled timer
// — or the zero Timer — is a no-op returning false.
//
//lint:hotpath
func (t *Timer) Cancel() bool {
	if !t.pending() {
		return false
	}
	t.ev.canceled = true
	e := t.env
	e.live--
	e.ncancel++
	// The cancelled entry stays queued until it surfaces or until cancelled
	// entries outnumber live ones, whichever comes first.
	if e.ncancel > e.queued()/2 && e.ncancel >= minCompact {
		e.compact()
	}
	return true
}

// minCompact is the cancelled-entry count below which compaction is not
// worth the reshuffle (the run loop discards small residues for free).
const minCompact = 32
