// Package sim stands in for the engine package: guesttaint matches ring pops
// on sim.Queue receivers and the delay arguments of the sim time APIs by
// import path, so fixtures import this stub at the real path.
package sim

import "time"

// Env is the event-loop stub.
type Env struct{}

// Schedule runs fn after d.
func (e *Env) Schedule(d time.Duration, fn func()) {}

// RunFor advances the clock by d.
func (e *Env) RunFor(d time.Duration) {}

// Proc is the process stub.
type Proc struct{}

// Sleep blocks p for d.
func (p *Proc) Sleep(d time.Duration) {}

// Queue is the bounded queue the analyzer treats as the ring boundary.
type Queue[T any] struct{ zero T }

// NewQueue creates a queue.
func NewQueue[T any](env *Env, capacity int) *Queue[T] { return &Queue[T]{} }

// Get pops one element.
func (q *Queue[T]) Get(p *Proc) (T, bool) { return q.zero, false }

// TryGet pops without blocking.
func (q *Queue[T]) TryGet() (T, bool) { return q.zero, false }

// GetTimeoutThen runs fn once an element is queued or d has elapsed.
func (q *Queue[T]) GetTimeoutThen(w *TimedWait, d time.Duration, fn func()) {}

// Put pushes one element.
func (q *Queue[T]) Put(p *Proc, v T) {}

// TimedWait is the timed-wait state stub.
type TimedWait struct{}
