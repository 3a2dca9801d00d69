package sim

// Pool is a free list of *T records: the engine's events, and the records a
// component keeps for each operation in flight (a frame on the wire, a
// segment on its way into a guest). Get pops a recycled record, or allocates
// one when the list is empty, so a Get/Put cycle allocates nothing once the
// list has grown to the working set. A Pool is not safe for concurrent use:
// a record goes back to the pool of a component on the Env that runs the
// record's last step, and a record whose last step runs on another Env is
// left to the garbage collector.
type Pool[T any] struct{ free []*T }

// Get returns a recycled record as its last Put left it, or a zero one.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return r
	}
	return new(T) //lint:allow hotalloc(pool refill: paid once per working-set growth, zero at steady state)
}

// Put returns r for a later Get.
func (p *Pool[T]) Put(r *T) {
	p.free = append(p.free, r) //lint:allow hotalloc(free-list growth is amortized into working-set size)
}
