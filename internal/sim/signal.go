package sim

import "time"

// Signal is a reusable wake-up point: processes Wait on it, other code
// (processes or event callbacks) Signals or Broadcasts it. There is no
// memory: a Broadcast with no waiters is a no-op, exactly like a condition
// variable.
//
// The zero Signal is ready to use: a Signal schedules wake-ups on the Env of
// the Procs that wait on it.
type Signal struct {
	// waiters[head:] is the FIFO of waits; entries before head are consumed.
	waiters []waiter
	head    int
	env     *Env // where Notify handlers are scheduled
}

// waiter is one wait of p, identified by p's wait generation at the time it
// began, or one Notify handler fn (p nil). A Proc's entry is live only
// while p.waitGen still equals gen; a handler's until it is woken.
type waiter struct {
	p   *Proc
	gen uint64
	fn  func()
}

func (w waiter) live() bool { return w.p == nil || w.p.waitGen == w.gen }

// NewSignal returns a new Signal. env is unused: the zero Signal is ready to
// use, and the simulator itself declares Signal values. NewSignal stays only
// for the benchmark harness's callers (bench/micro.go).
func NewSignal(env *Env) *Signal { return &Signal{} }

// enqueue starts a new wait of p on s. Before the slice would grow, dead
// entries (consumed, or left behind by timed-out waits) are squeezed out,
// so a Signal's list stays proportional to its live waiters.
func (s *Signal) enqueue(p *Proc) waiter {
	p.waitGen++
	w := waiter{p: p, gen: p.waitGen}
	s.push(w)
	return w
}

// push appends w to the FIFO.
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

// wake consumes w's wait and schedules its Proc or handler, reporting false
// when the wait was already woken or timed out.
func (s *Signal) wake(w waiter) bool {
	if !w.live() {
		return false
	}
	if w.p == nil {
		s.env.Schedule(0, w.fn)
		return true
	}
	w.p.waitGen++
	w.p.env.Schedule(0, w.p.wake)
	return true
}

// Wait suspends p until the next Signal or Broadcast.
//
//lint:hotpath
func (s *Signal) Wait(p *Proc) {
	p.checkContext()
	s.enqueue(p)
	p.park()
}

// WaitTimeout suspends p until the next Signal/Broadcast or until d elapses.
// It reports false on timeout. The timer runs p's prebound timeout callback
// and the wait's state lives in p, so a timed wait allocates nothing.
//
//lint:hotpath
func (s *Signal) WaitTimeout(p *Proc, d time.Duration) bool {
	p.checkContext()
	p.timedWait, p.timedOut = s.enqueue(p), false
	timer := p.env.Schedule(d, p.timeout)
	p.park()
	timer.Cancel()
	return !p.timedOut
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

// Waiters returns the number of processes and handlers currently waiting.
func (s *Signal) Waiters() int {
	n := 0
	for _, w := range s.waiters[s.head:] {
		if w.live() {
			n++
		}
	}
	return n
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
