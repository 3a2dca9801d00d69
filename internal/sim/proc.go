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
	// completion is p.complete and inline p.resume, bound once at creation
	// so Arm and ArmInline hand them out without allocating; arm tracks the
	// one completion p may have outstanding.
	completion, inline func()
	arm                armState
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
	p.completion, p.inline = p.complete, p.resume
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
//
//lint:hotpath
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
		p.End()
	}
	e.procErr = nil
}

// End finishes p at once, as Close does for every Proc: parked, it unwinds
// through its defers; never started, its body never runs. It schedules no
// event, and a finished p is left as it is. p must not be the running Proc.
func (p *Proc) End() {
	if p.done {
		return
	}
	e := p.env
	prev := e.current
	e.current = p
	p.stop()
	e.current = prev
	if !p.done { // never started: the body, and its finish, never ran
		p.finish()
	}
}

// Live reports the number of processes that have been started (or created)
// and have not yet finished.
func (e *Env) Live() int { return len(e.procs) }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

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

// ArmInline is Arm for a completion that runs in the event that would have
// resumed p: parked, p resumes inside the completion's call, with no
// zero-delay hop. It is what a continuation chain hands its last step when
// a blocking call is a thin Proc wrapper over it.
//
//lint:hotpath
func (p *Proc) ArmInline() func() {
	p.Arm()
	return p.inline
}

// complete is the callback Arm hands out. If p is parked in Await it
// schedules p's wake-up as a zero-delay event, the one event a Signal
// Broadcast schedules for a sole waiter.
//
//lint:hotpath
func (p *Proc) complete() {
	if p.settle() {
		p.env.Schedule(0, p.wake)
	}
}

// resume is the callback ArmInline hands out: it resumes a parked p at once.
//
//lint:hotpath
func (p *Proc) resume() {
	if p.settle() {
		p.env.dispatch(p)
	}
}

// settle records that p's completion has run and reports whether p is
// parked in Await, waiting to be resumed. After Close has aborted p it
// does nothing.
func (p *Proc) settle() bool {
	switch {
	case p.done:
	case p.arm == armArmed:
		p.arm = armFired
	case p.arm == armParked:
		p.arm = armIdle
		return true
	default:
		panic(fmt.Sprintf("sim: completion of process %q ran twice", p.name))
	}
	return false
}

// checkContext panics if a blocking method is invoked from outside the
// process — a programming error that would otherwise corrupt the handoff.
func (p *Proc) checkContext() {
	if p.env.current != p {
		panic(fmt.Sprintf("sim: blocking call on process %q from outside its goroutine", p.name))
	}
}
