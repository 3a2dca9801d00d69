package sim

import "time"

// Queue is a bounded FIFO of T with blocking Put and Get, the workhorse for
// rings, socket buffers, and device queues. A capacity of 0 means unbounded.
type Queue[T any] struct {
	env      *Env
	items    []T
	capacity int
	notEmpty *Signal
	notFull  *Signal
	closed   bool
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func NewQueue[T any](env *Env, capacity int) *Queue[T] {
	return &Queue[T]{
		env:      env,
		capacity: capacity,
		notEmpty: NewSignal(env),
		notFull:  NewSignal(env),
	}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Close marks the queue closed: pending and future Gets drain remaining items
// and then return ok=false; Puts on a closed queue panic.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// Put appends v, blocking while the queue is full.
//
//lint:hotpath
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.capacity > 0 && len(q.items) >= q.capacity && !q.closed {
		q.notFull.Wait(p)
	}
	if q.closed {
		panic("sim: Put on closed Queue")
	}
	q.items = append(q.items, v) //lint:allow hotalloc(growth amortized into the queue's bounded working set)
	q.notEmpty.Signal()
}

// TryPut appends v if space is available, reporting success.
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed {
		panic("sim: Put on closed Queue")
	}
	if q.capacity > 0 && len(q.items) >= q.capacity {
		return false
	}
	q.items = append(q.items, v)
	q.notEmpty.Signal()
	return true
}

// Get removes and returns the oldest item, blocking while the queue is empty.
// ok is false only when the queue is closed and drained.
//
//lint:hotpath
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for len(q.items) == 0 && !q.closed {
		q.notEmpty.Wait(p)
	}
	if len(q.items) == 0 {
		return v, false
	}
	return q.pop(), true
}

// GetTimeout is Get with a deadline; ok is false on timeout or closed-empty.
func (q *Queue[T]) GetTimeout(p *Proc, d time.Duration) (v T, ok bool) {
	deadline := q.env.Now() + d
	for len(q.items) == 0 && !q.closed {
		remaining := deadline - q.env.Now()
		if remaining <= 0 || !q.notEmpty.WaitTimeout(p, remaining) {
			return v, false
		}
	}
	if len(q.items) == 0 {
		return v, false
	}
	return q.pop(), true
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	return q.pop(), true
}

// Peek returns the oldest item without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	return q.items[0], true
}

func (q *Queue[T]) pop() T {
	v := q.items[0]
	var zero T
	q.items[0] = zero
	q.items = q.items[1:]
	q.notFull.Signal()
	return v
}
