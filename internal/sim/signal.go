package sim

import "time"

// Signal is a reusable wake-up point: processes Wait on it, other code
// (processes or event callbacks) Signals or Broadcasts it. There is no
// memory: a Broadcast with no waiters is a no-op, exactly like a condition
// variable.
//
// The zero Signal is ready to use: a Signal schedules wake-ups on the Env of
// the Procs and handlers that wait on it.
type Signal struct {
	// waiters[head:] is the FIFO of waits; entries before head are consumed.
	waiters []waiter
	head    int
	env     *Env // where wake-ups are scheduled
}

// waiter is one wait: fn runs on its wake-up, a Proc's wake or a Notify
// handler. A timed wait's entry (t non-nil) is live only while t is still
// in the wait the entry began, numbered gen; every other entry stays live
// until it is woken.
type waiter struct {
	fn  func()
	t   *TimedWait
	gen uint64
}

func (w waiter) live() bool { return w.t == nil || w.t.waiting && w.t.gen == w.gen }

// NewSignal returns a new Signal. env is unused: the zero Signal is ready to
// use, and the simulator itself declares Signal values. NewSignal stays only
// for the benchmark harness's callers (bench/micro.go).
func NewSignal(env *Env) *Signal { return &Signal{} }

// push appends w to the FIFO. Before the slice would grow, dead entries
// (consumed, or left behind by timed-out waits) are squeezed out, so a
// Signal's list stays proportional to its live waiters.
func (s *Signal) push(w waiter) {
	if len(s.waiters) == cap(s.waiters) {
		kept := s.waiters[:0]
		for _, w := range s.waiters[s.head:] {
			if w.live() {
				kept = append(kept, w) //lint:allow hotalloc(filters in place: capacity bounded by the source slice, never grows)
			}
		}
		clear(s.waiters[len(kept):])
		s.waiters, s.head = kept, 0
	}
	s.waiters = append(s.waiters, w) //lint:allow hotalloc(amortized into the signal's waiter working set)
}

// Notify queues fn as a one-shot waiter in the same FIFO as Procs in Wait:
// the Signal or Broadcast that would have resumed a Proc in its place
// schedules fn at zero delay on env instead, so a handler that re-checks
// its condition and notifies again fires a Wait loop's events.
//
//lint:hotpath
func (s *Signal) Notify(env *Env, fn func()) {
	s.env = env
	s.push(waiter{fn: fn})
}

// TimedWait is a handler's wait with a deadline: the continuation form of a
// Proc's timed wait. One TimedWait serves one wait at a time; its wake-up
// and timer callbacks are bound on first use, so waiting allocates nothing.
// The zero TimedWait is ready to use.
type TimedWait struct {
	fn      func()
	timer   Timer
	gen     uint64 // numbers the waits; an entry of an earlier one is dead
	waiting bool   // the current wait is neither woken nor expired
	expired bool   // the last wait ended at its deadline
	woken   func() // w.wake, bound once
	timeout func() // w.expire, bound once
}

// notifyTimeout queues fn as a one-shot waiter for at most d. A Signal or
// Broadcast schedules its wake-up at zero delay, as for a Proc, and that
// event cancels the timer before fn runs. If d elapses first, fn runs inside
// the timer event, where a timed-out Proc would resume, with w.expired set.
func (s *Signal) notifyTimeout(env *Env, w *TimedWait, d time.Duration, fn func()) {
	if w.woken == nil {
		w.woken, w.timeout = w.wake, w.expire
	}
	w.gen++
	w.fn, w.waiting, w.expired = fn, true, false
	s.env = env
	s.push(waiter{fn: w.woken, t: w, gen: w.gen})
	w.timer = env.Schedule(d, w.timeout)
}

// wake is a woken timed wait's zero-delay event: the deadline is void.
func (w *TimedWait) wake() {
	w.timer.Cancel()
	w.fn()
}

// expire is the timer event: a wait still live ends here, timed out.
func (w *TimedWait) expire() {
	if !w.waiting {
		return
	}
	w.waiting, w.expired = false, true
	w.fn()
}

// wake consumes w's wait and schedules its wake-up, reporting false when
// the wait was already woken or timed out.
func (s *Signal) wake(w waiter) bool {
	if !w.live() {
		return false
	}
	if w.t != nil {
		w.t.waiting = false
	}
	s.env.Schedule(0, w.fn)
	return true
}

// Wait suspends p until the next Signal or Broadcast.
//
//lint:hotpath
func (s *Signal) Wait(p *Proc) {
	p.checkContext()
	s.env = p.env
	s.push(waiter{fn: p.wake})
	p.park()
}

// Signal wakes exactly one waiting process (the longest-waiting one). It
// reports whether a process was woken. The wake-up schedules the process's
// prebound wake closure, so signalling allocates nothing.
//
//lint:hotpath
func (s *Signal) Signal() bool {
	woke := false
	for !woke && s.head < len(s.waiters) {
		w := s.waiters[s.head]
		s.waiters[s.head] = waiter{}
		s.head++
		woke = s.wake(w)
	}
	if s.head == len(s.waiters) {
		s.waiters, s.head = s.waiters[:0], 0
	}
	return woke
}

// Broadcast wakes every currently waiting process.
//
//lint:hotpath
func (s *Signal) Broadcast() {
	for _, w := range s.waiters[s.head:] {
		s.wake(w)
	}
	clear(s.waiters)
	s.waiters, s.head = s.waiters[:0], 0
}

// Mutex is a simulated mutual-exclusion lock. Lock order is FIFO. The zero
// Mutex is unlocked and ready to use.
type Mutex struct {
	locked bool
	sig    Signal
}

// Lock blocks p until the mutex is acquired.
//
//lint:hotpath
func (m *Mutex) Lock(p *Proc) {
	for m.locked {
		m.sig.Wait(p)
	}
	m.locked = true
}

// Unlock releases the mutex. Unlocking an unlocked mutex panics.
//
//lint:hotpath
func (m *Mutex) Unlock() {
	if !m.locked {
		panic("sim: unlock of unlocked Mutex")
	}
	m.locked = false
	m.sig.Signal()
}
