//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"time"
)

type procPanic struct {
	proc  string
	value interface{}
}

func (p *procPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", p.proc, p.value)
}

type abortSentinel struct{}

// Proc is a simulated process. All Proc methods that can block must be called
// only from the process itself (that is, from within the function passed to
// Go).
//
// A Proc is an iter.Pull coroutine: dispatch resumes it with next and it
// parks by calling yield, so a handoff is a direct coroutine switch rather
// than a round trip through the Go scheduler.
type Proc struct {
	env  *Env
	name string
	done bool
	// wake redispatches the process; bound once at creation so the wake-up
	// paths (Sleep, Signal, Broadcast) schedule it without allocating a
	// fresh closure per suspension.
	wake func()
	// next resumes the coroutine until it parks or returns, stop aborts it,
	// and yield (valid inside the coroutine) parks it. All three are nil
	// once the Proc has finished.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// waitGen identifies the Proc's current Signal wait: a waiter entry is
	// live only while its gen equals waitGen, and waking bumps waitGen, so
	// an entry left behind in another Signal (a timed-out wait) can never
	// wake a later wait.
	waitGen uint64
	// completion is p.complete, bound once at creation so Arm hands it out
	// without allocating; arm tracks the one completion it may have
	// outstanding.
	completion func()
	arm        armState
	// timeout is p.expire, bound once at creation so WaitTimeout schedules
	// it without allocating; timedWait is the Signal wait it may end, and
	// timedOut records that it did.
	timeout   func()
	timedWait waiter
	timedOut  bool
}

// armState is where a Proc's completion stands between Arm and the return
// of Await.
type armState uint8

const (
	armIdle   armState = iota // no completion outstanding
	armArmed                  // handed out; neither run nor awaited yet
	armParked                 // the Proc is parked in Await
	armFired                  // run before the Proc reached Await
)

// Go creates a process and schedules it to start at the current virtual time
// (after already-queued events).
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	return e.GoAfter(0, name, fn)
}

// GoAfter creates a process that starts after the given virtual delay.
func (e *Env) GoAfter(after time.Duration, name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	p.wake = func() { e.dispatch(p) }
	p.completion = p.complete
	p.timeout = p.expire
	e.procs[p] = struct{}{}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) { p.run(yield, fn) })
	e.Schedule(after, p.wake)
	return p
}

// run is the coroutine body. A panic in fn is recovered here, inside the
// coroutine, and handed to Env.run as the run's error; the abort sentinel
// (Close) unwinds fn's defers and finishes the Proc silently.
func (p *Proc) run(yield func(struct{}) bool, fn func(p *Proc)) {
	p.yield = yield
	defer func() {
		r := recover()
		p.finish()
		if _, abort := r.(abortSentinel); r != nil && !abort {
			p.env.procErr = &procPanic{proc: p.name, value: r}
		}
	}()
	fn(p)
}

// finish marks p done and drops its coroutine, so a finished Proc does not
// keep fn and its captures reachable.
func (p *Proc) finish() {
	delete(p.env.procs, p)
	p.done = true
	p.next, p.stop, p.yield = nil, nil, nil
}

// dispatch transfers control to p until it parks or finishes. Must run in
// event context; a dispatch from inside another Proc nests, and current is
// restored to that Proc afterwards.
func (e *Env) dispatch(p *Proc) {
	if p.done {
		return
	}
	e.resumes++
	prev := e.current
	e.current = p
	p.next()
	e.current = prev
}

// park yields control back to the engine until some event dispatches p
// again. When Close stops the coroutine, yield reports false and park
// unwinds p with the abort sentinel, running its defers.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(abortSentinel{})
	}
}

// Close aborts every live process: each parked Proc unwinds through its
// defers, and a Proc that never started never runs its body. The
// environment must not be used afterwards. It is safe to call Close on an
// environment whose processes have all finished.
func (e *Env) Close() {
	for p := range e.procs {
		e.current = p
		p.stop()
		e.current = nil
		if !p.done { // never started: the body, and its finish, never ran
			p.finish()
		}
	}
	e.procErr = nil
}

// Live reports the number of processes that have been started (or created)
// and have not yet finished.
func (e *Env) Live() int { return len(e.procs) }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep suspends the process for d of virtual time.
//
//lint:hotpath
func (p *Proc) Sleep(d time.Duration) {
	p.checkContext()
	p.env.Schedule(d, p.wake)
	p.park()
}

// Arm hands out p's completion callback for one operation p is about to
// start: arm, start the operation, Await; nothing may block in between. The
// callback may run from any event (or synchronously, inside the call that
// starts the operation) and runs exactly once per Arm. A Proc has at most
// one completion outstanding, so arming again before Await returns panics.
//
//lint:hotpath
func (p *Proc) Arm() func() {
	if p.arm != armIdle {
		panic(fmt.Sprintf("sim: Arm on process %q with a completion already outstanding", p.name))
	}
	p.arm = armArmed
	return p.completion
}

// Await blocks p until the completion handed out by the last Arm has run,
// returning at once if it already has.
//
//lint:hotpath
func (p *Proc) Await() {
	p.checkContext()
	switch p.arm {
	case armFired:
		p.arm = armIdle
	case armArmed:
		p.arm = armParked
		p.park()
	default:
		panic(fmt.Sprintf("sim: Await on process %q without an armed completion", p.name))
	}
}

// complete is the callback Arm hands out. If p is parked in Await it
// schedules p's wake-up as a zero-delay event, the one event a Signal
// Broadcast schedules for a sole waiter; otherwise it only records that
// the completion has run. After Close has aborted p it does nothing.
func (p *Proc) complete() {
	switch {
	case p.done:
	case p.arm == armArmed:
		p.arm = armFired
	case p.arm == armParked:
		p.arm = armIdle
		p.env.Schedule(0, p.wake)
	default:
		panic(fmt.Sprintf("sim: completion of process %q ran twice", p.name))
	}
}

// expire is the timer callback of WaitTimeout: if the timed wait is still
// live it consumes the wait and resumes p at once, marked timed out.
func (p *Proc) expire() {
	if !p.timedWait.live() {
		return
	}
	p.waitGen++
	p.timedOut = true
	p.env.dispatch(p)
}

// checkContext panics if a blocking method is invoked from outside the
// process — a programming error that would otherwise corrupt the handoff.
func (p *Proc) checkContext() {
	if p.env.current != p {
		panic(fmt.Sprintf("sim: blocking call on process %q from outside its goroutine", p.name))
	}
}
