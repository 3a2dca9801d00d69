package cpusched

import (
	"vread/internal/sim"
	"vread/internal/trace"
)

// Steps runs a chain of event handlers on v that fires a Proc's events in
// place of its straight-line code. One continuation is outstanding at a
// time, and both completions are method values bound once, by Bind.
type Steps[V any] struct {
	v            V
	env          *sim.Env
	next         func(V)
	resume, call func()
}

// Bind binds s to v and env; binding again does nothing.
func (s *Steps[V]) Bind(env *sim.Env, v V) {
	if s.call == nil {
		s.v, s.env = v, env
		s.call, s.resume = s.run, s.later
	}
}

// run continues with the next step at once.
func (s *Steps[V]) run() { s.next(s.v) }

// later continues with the next step one zero-delay event later, the hop
// Proc.Arm's completion takes before the Proc resumes.
func (s *Steps[V]) later() { s.env.Schedule(0, s.call) }

// Then returns the completion that continues with next one zero-delay
// event later, the hop Proc.Arm's completion takes before a Proc resumes.
//
//lint:hotpath
func (s *Steps[V]) Then(next func(V)) func() {
	s.next = next
	return s.resume
}

// Direct returns the completion that continues with next at once, for a
// wake-up that already is the resume event (Signal.Notify, a Queue's).
//
//lint:hotpath
func (s *Steps[V]) Direct(next func(V)) func() {
	s.next = next
	return s.call
}

// Charge runs cycles on t, then continues with next as RunT returns: one
// zero-delay event after the work completes, or at once when there is none.
//
//lint:hotpath
func (s *Steps[V]) Charge(t *Thread, cycles int64, tag string, tr *trace.Trace, next func(V)) {
	if cycles <= 0 {
		next(s.v)
		return
	}
	t.PostT(cycles, tag, tr, s.Then(next))
}
