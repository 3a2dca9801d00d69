package sim

import "time"

// Queue is a bounded FIFO of T with blocking Put and Get, the workhorse for
// rings, socket buffers, and device queues. A capacity of 0 means unbounded.
//
// The items live in a ring: buf[head], buf[head+1], ... wrapping at
// len(buf), n of them. A full ring doubles on demand (never past capacity),
// so a steady Put/Get stream reuses one backing array, and a large-capacity
// queue that never fills never pays for its capacity.
type Queue[T any] struct {
	env      *Env
	buf      []T
	head     int
	n        int
	capacity int
	notEmpty Signal
	notFull  Signal
	closed   bool
	notify   func() // the handler consumer armed by Notify, if any
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func NewQueue[T any](env *Env, capacity int) *Queue[T] {
	return &Queue[T]{env: env, capacity: capacity}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

func (q *Queue[T]) full() bool { return q.capacity > 0 && q.n >= q.capacity }

// Close marks the queue closed: pending and future Gets drain remaining items
// and then return ok=false; Puts on a closed queue panic.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.wakeConsumer()
	q.notFull.Broadcast()
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// Notify arms fn as the queue's consumer: the next push or Close schedules it
// at zero delay where it would have woken a Proc parked in Get, so a handler
// popping with TryGet fires a Get loop's events. A queue's consumers are
// Procs in Get or one handler: Notify panics while a Proc is parked in Get.
func (q *Queue[T]) Notify(fn func()) {
	if q.notEmpty.Waiters() > 0 {
		panic("sim: Notify on a Queue with a Proc parked in Get")
	}
	q.notify = fn
}

// wakeConsumer hands a push or Close to the armed handler, else to Get.
func (q *Queue[T]) wakeConsumer() {
	if fn := q.notify; fn != nil {
		q.notify = nil
		q.env.Schedule(0, fn)
	} else if q.closed {
		q.notEmpty.Broadcast()
	} else {
		q.notEmpty.Signal()
	}
}

// Put appends v, blocking while the queue is full.
//
//lint:hotpath
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.full() && !q.closed {
		q.notFull.Wait(p)
	}
	if q.closed {
		panic("sim: Put on closed Queue")
	}
	q.push(v)
}

// TryPut appends v if space is available, reporting success.
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed {
		panic("sim: Put on closed Queue")
	}
	if q.full() {
		return false
	}
	q.push(v)
	return true
}

// Get removes and returns the oldest item, blocking while the queue is empty.
// ok is false only when the queue is closed and drained.
//
//lint:hotpath
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait(p)
	}
	if q.n == 0 {
		return v, false
	}
	return q.pop(), true
}

// GetTimeout is Get with a deadline; ok is false on timeout or closed-empty.
//
//lint:hotpath
func (q *Queue[T]) GetTimeout(p *Proc, d time.Duration) (v T, ok bool) {
	deadline := q.env.Now() + d
	for q.n == 0 && !q.closed {
		remaining := deadline - q.env.Now()
		if remaining <= 0 || !q.notEmpty.WaitTimeout(p, remaining) {
			return v, false
		}
	}
	if q.n == 0 {
		return v, false
	}
	return q.pop(), true
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	return q.pop(), true
}

// push stores v at the tail, first doubling a full ring (capped at the
// queue's capacity) and unwrapping its items to the front of the new array.
func (q *Queue[T]) push(v T) {
	if q.n == len(q.buf) {
		size := max(2*len(q.buf), 1)
		if q.capacity > 0 {
			size = min(size, q.capacity)
		}
		buf := make([]T, size) //lint:allow hotalloc(growth amortized into the queue's bounded working set)
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
	q.wakeConsumer()
}

// pop removes the head item, clearing its slot so the ring holds no stale
// references.
func (q *Queue[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	q.notFull.Signal()
	return v
}
