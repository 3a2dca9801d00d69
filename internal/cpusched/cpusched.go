// Package cpusched models a virtualized host's CPU: a small number of cores
// multiplexed among host-schedulable threads (vCPU threads, vhost-net I/O
// threads, QEMU block iothreads, the vRead daemon, host softirq work) under a
// CFS-like fair-share policy.
//
// This scheduler is where the paper's second systemic overhead lives: when
// more runnable threads exist than cores, a waking I/O thread cannot always
// run immediately, so VM↔I/O-thread synchronization pays scheduling delay
// (Figure 3, and the 2-VM vs 4-VM gaps of Figures 9, 11, 12).
//
// The model mirrors the structure of Linux CFS around the paper's 3.12
// kernel: per-core runqueues ordered by vruntime, cache-affine wakeup
// placement with an idle-sibling scan, wakeup preemption checked only
// against the target core's current thread, sleeper-fairness vruntime
// placement, timeslices of sched_latency/nr_running clamped to a minimum
// granularity, new-idle stealing, and periodic load balancing. All cycle
// consumption is charged to a metrics.Registry under the consuming thread's
// entity and the work item's tag.
//
// Threads are *work queues*, not coroutines: any number of simulated
// processes may submit cycle-work to one thread (a 1-vCPU guest multiplexes
// its application, syscall and softirq work on one host thread), and the
// thread consumes items FIFO. CPU frequency converts cycles to time, which
// is how the paper's 1.6/2.0/3.2 GHz sweep is reproduced.
package cpusched

import (
	"container/heap"
	"fmt"
	"time"

	"vread/internal/metrics"
	"vread/internal/sim"
	"vread/internal/trace"
)

// Scheduler constants, approximating Linux CFS of the paper's era.
const (
	// schedLatency is the target period in which every runnable thread on a
	// core runs once.
	schedLatency = 6 * time.Millisecond
	// minGranularity is the smallest timeslice.
	minGranularity = 750 * time.Microsecond
	// wakeupGranularity gates wakeup preemption: a waking thread preempts
	// the target core's current thread only if its vruntime is at least
	// this far behind.
	wakeupGranularity = time.Millisecond
	// sleeperCredit bounds how far behind a core's min vruntime a waking
	// thread is placed (GENTLE_FAIR_SLEEPERS).
	sleeperCredit = 3 * time.Millisecond
	// wakeLatency is the fixed cost (IPI + dispatch) of placing a waking
	// thread on an idle core.
	wakeLatency = 3 * time.Microsecond
	// balanceInterval is the periodic load-balance period.
	balanceInterval = 4 * time.Millisecond
	// tick caps how long a thread runs before the scheduler re-evaluates
	// preemption (the scheduler-tick granularity).
	tick = time.Millisecond
)

// Config holds the scheduler's switch costs. Zero values select defaults
// that approximate Linux CFS of the paper's era.
type Config struct {
	// CtxSwitchCycles is charged (to the incoming thread's entity, tag
	// "others") on every context switch. Default 4000; -1 disables.
	CtxSwitchCycles int64
	// CacheColdCycles is charged when a thread is placed on a core whose
	// previous occupant was a different thread (L1/L2/TLB refill). This is
	// what makes over-subscribed hosts slower even when cores are nominally
	// free — threads play musical chairs. Default 15000; -1 disables.
	CacheColdCycles int64
}

func (c Config) withDefaults() Config {
	if c.CtxSwitchCycles == 0 {
		c.CtxSwitchCycles = 4000
	}
	if c.CacheColdCycles == 0 {
		c.CacheColdCycles = 15000
	}
	return c
}

// CPU is one host's processor: n cores at a given frequency. The cores are
// built by the first wake, so a host that never runs anything holds no
// scheduler state.
type CPU struct {
	env      *sim.Env
	reg      *metrics.Registry
	cfg      Config
	freqHz   int64
	ncores   int
	cores    []core // nil until the first wake builds them
	seq      uint64
	rr       int // rotation cursor for placement tie-breaking
	balArmed bool
	// balanceFn is c.balanceTick, bound once so arming the balancer does not
	// allocate a method value.
	balanceFn func()
	// lastSlice and lastSliceCycles memoize CyclesFor of the last
	// timeslice: a core's slice is almost always the tick or one load's
	// share, so startSlice rarely converts.
	lastSlice       time.Duration
	lastSliceCycles int64
}

type core struct {
	id         int
	cpu        *CPU
	runq       threadHeap
	cur        *Thread
	last       *Thread // previous occupant, for the cache-cold penalty
	minVR      time.Duration
	sliceTimer sim.Timer
	sliceStart time.Duration
	planned    int64 // cycles planned for the current slice; -1 = reserved
	// startSliceFn and sliceEndFn are co.startSlice and co.sliceEnd, bound
	// once so scheduling them does not allocate a method value per call.
	startSliceFn func()
	sliceEndFn   func()
}

// ThreadState is a thread's scheduling state.
type ThreadState int

// Thread states.
const (
	StateIdle ThreadState = iota // no pending work
	StateRunnable
	StateRunning
)

// Thread is one host-schedulable execution context.
type Thread struct {
	cpu      *CPU
	name     string
	entity   string
	acct     *metrics.Account // entity's ledger, resolved once on the first wake
	state    ThreadState
	vruntime time.Duration
	seq      uint64 // runqueue FIFO tiebreak
	core     *core  // core currently running on (nil unless StateRunning)
	lastCore *core  // cache-affinity hint
	work     workFIFO
	pending  int64 // total cycles across work items
	consumed int64 // lifetime cycles consumed
}

type workItem struct {
	remaining int64
	tag       string
	tr        *trace.Trace // request the cycles are performed for (may be nil)
	onDone    func()
}

// workFIFO is a thread's work items, held by value in a ring buffer, so
// posting work and prepending scheduler charges allocate nothing once the
// ring has grown to the thread's working set.
type workFIFO struct {
	buf  []workItem // len is zero or a power of two
	head int
	n    int
}

func (q *workFIFO) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]workItem, size) //lint:allow hotalloc(ring growth is amortized into the thread's working set)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}

func (q *workFIFO) pushBack(it workItem) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = it
	q.n++
}

func (q *workFIFO) pushFront(it workItem) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = it
	q.n++
}

// front returns the oldest item in place; the FIFO must be non-empty.
func (q *workFIFO) front() *workItem { return &q.buf[q.head] }

func (q *workFIFO) popFront() {
	q.buf[q.head] = workItem{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// New creates a CPU with the given core count and frequency.
func New(env *sim.Env, reg *metrics.Registry, cores int, freqHz int64, cfg Config) *CPU {
	if cores <= 0 {
		panic("cpusched: cores must be positive")
	}
	if freqHz <= 0 {
		panic("cpusched: frequency must be positive")
	}
	return &CPU{env: env, reg: reg, cfg: cfg.withDefaults(), freqHz: freqHz, ncores: cores}
}

// firstWake resolves t's ledger on t's first wake. The CPU's first wake is
// one of its threads' first, so it builds the cores there too.
func (c *CPU) firstWake(t *Thread) {
	t.acct = c.reg.Account(t.entity)
	if c.cores == nil {
		c.build()
	}
}

// build makes the cores and binds the balancer, once per CPU.
func (c *CPU) build() {
	c.cores = make([]core, c.ncores) //lint:allow hotalloc(once per CPU, on its first thread's first wake)
	for i := range c.cores {
		co := &c.cores[i]
		co.id, co.cpu = i, c
		co.startSliceFn, co.sliceEndFn = co.startSlice, co.sliceEnd
	}
	c.balanceFn = c.balanceTick
}

// Env returns the simulation environment.
func (c *CPU) Env() *sim.Env { return c.env }

// CyclesFor converts a duration at this CPU's frequency into cycles.
func (c *CPU) CyclesFor(d time.Duration) int64 {
	return int64(float64(d.Nanoseconds()) * float64(c.freqHz) / 1e9)
}

// DurFor converts cycles into execution time at this CPU's frequency
// (rounded up so consumption always completes the planned cycles). It is
// the canonical cycles→time crossing; everything else must route through
// it rather than casting cycles to time.Duration directly.
//
//lint:converter unitflow(integer cycles over freqHz with round-up is the one blessed cycles→time conversion)
func (c *CPU) DurFor(cycles int64) time.Duration {
	ns := (cycles*1e9 + c.freqHz - 1) / c.freqHz
	return time.Duration(ns)
}

// NewThread registers a thread. Entity names group metrics ("client",
// "datanode", "vread-daemon"...).
func (c *CPU) NewThread(name, entity string) *Thread {
	return &Thread{cpu: c, name: name, entity: entity}
}

// Consumed returns lifetime cycles consumed by the thread.
func (t *Thread) Consumed() int64 { return t.consumed }

// Pending returns cycles queued but not yet consumed.
func (t *Thread) Pending() int64 { return t.pending }

// Post submits cycles of work tagged tag; onDone (may be nil) runs when the
// work completes. Post never blocks and may be called from event context.
func (t *Thread) Post(cycles int64, tag string, onDone func()) {
	t.PostT(cycles, tag, nil, onDone)
}

// PostT is Post with the cycles attributed to a request trace (nil is the
// untraced fast path, identical to Post).
//
//lint:hotpath
func (t *Thread) PostT(cycles int64, tag string, tr *trace.Trace, onDone func()) {
	if cycles < 0 {
		panic(fmt.Sprintf("cpusched: negative work %d on %s", cycles, t.name))
	}
	if cycles == 0 {
		if onDone != nil {
			t.cpu.env.Schedule(0, onDone)
		}
		return
	}
	t.work.pushBack(workItem{remaining: cycles, tag: tag, tr: tr, onDone: onDone})
	t.pending += cycles
	if t.state == StateIdle {
		t.cpu.wake(t)
	}
}

// Run submits cycles of work and blocks p until the work completes. This is
// how simulated processes "execute on" a thread.
func (t *Thread) Run(p *sim.Proc, cycles int64, tag string) {
	t.RunT(p, cycles, tag, nil)
}

// RunT is Run with the cycles attributed to a request trace (nil is the
// untraced fast path, identical to Run).
//
//lint:hotpath
func (t *Thread) RunT(p *sim.Proc, cycles int64, tag string, tr *trace.Trace) {
	if cycles <= 0 {
		return
	}
	t.PostT(cycles, tag, tr, p.Arm())
	p.Await()
}

// ---------------------------------------------------------------------------
// Scheduler internals. All methods below run in event context.

// wake makes an idle thread with pending work runnable and places it:
// last-run core if idle, else any idle core, else enqueue on the affine core
// with a local preemption check — the CFS placement dance.
func (c *CPU) wake(t *Thread) {
	if t.acct == nil {
		c.firstWake(t)
	}
	c.armBalancer()
	target := t.lastCore
	if target == nil {
		target = c.leastLoaded()
	}
	if target.cur == nil {
		c.dispatch(target, t, wakeLatency)
		return
	}
	// Idle-sibling scan, rotated so placements spread instead of piling
	// onto the lowest-numbered core.
	n := len(c.cores)
	for i := 0; i < n; i++ {
		co := &c.cores[(c.rr+i)%n]
		if co.cur == nil {
			c.rr = (c.rr + i + 1) % n
			c.dispatch(co, t, wakeLatency)
			return
		}
	}
	// No idle core: place on the affine core's runqueue with sleeper credit
	// relative to that core's min vruntime.
	t.state = StateRunnable
	if bound := target.minVR - sleeperCredit; t.vruntime < bound {
		t.vruntime = bound
	}
	target.enqueue(t)
	// Wakeup preemption, checked against this core's current thread only.
	if target.planned >= 0 && t.vruntime+wakeupGranularity < target.cur.vruntime {
		target.preemptCurrent()
		target.pickNext()
	}
}

func (c *CPU) leastLoaded() *core {
	n := len(c.cores)
	best := &c.cores[c.rr%n]
	bestLoad := best.load()
	for i := 1; i < n; i++ {
		co := &c.cores[(c.rr+i)%n]
		if l := co.load(); l < bestLoad {
			best, bestLoad = co, l
		}
	}
	c.rr = (c.rr + 1) % n
	return best
}

func (co *core) load() int {
	n := len(co.runq)
	if co.cur != nil {
		n++
	}
	return n
}

// dispatch reserves an idle core for t and starts its slice after delay.
func (c *CPU) dispatch(co *core, t *Thread, delay time.Duration) {
	co.cur = t
	co.planned = -1
	t.state = StateRunning
	t.core = co
	t.lastCore = co
	co.chargeCold(t)
	c.env.Schedule(delay, co.startSliceFn)
}

// chargeCold prepends the cache-refill penalty when the core's previous
// occupant differs from the incoming thread.
//
//lint:hotpath
func (co *core) chargeCold(t *Thread) {
	c := co.cpu
	if c.cfg.CacheColdCycles > 0 && co.last != t {
		t.work.pushFront(workItem{remaining: c.cfg.CacheColdCycles, tag: metrics.TagOthers})
		t.pending += c.cfg.CacheColdCycles
	}
	co.last = t
}

func (co *core) enqueue(t *Thread) {
	t.state = StateRunnable
	t.lastCore = co
	co.cpu.seq++
	t.seq = co.cpu.seq
	heap.Push(&co.runq, t)
}

// timeslice returns the CFS slice for this core's load.
func (co *core) timeslice() time.Duration {
	n := co.load()
	if n <= 0 {
		n = 1
	}
	s := schedLatency / time.Duration(n)
	if s < minGranularity {
		s = minGranularity
	}
	return s
}

// startSlice begins (or continues) execution of co.cur.
//
//lint:hotpath
func (co *core) startSlice() {
	t := co.cur
	if t == nil {
		return
	}
	if t.pending == 0 {
		co.finishCurrent()
		return
	}
	c := co.cpu
	slice := co.timeslice()
	if slice > tick {
		slice = tick // re-evaluate preemption at tick granularity
	}
	if slice != c.lastSlice {
		c.lastSlice, c.lastSliceCycles = slice, c.CyclesFor(slice)
	}
	sliceCycles := c.lastSliceCycles
	if sliceCycles < 1 {
		sliceCycles = 1
	}
	if t.pending < sliceCycles {
		sliceCycles = t.pending
	}
	co.planned = sliceCycles
	co.sliceStart = c.env.Now()
	co.sliceTimer = c.env.Schedule(c.DurFor(sliceCycles), co.sliceEndFn)
}

// sliceEnd fires when the planned cycles have been consumed.
//
//lint:hotpath
func (co *core) sliceEnd() {
	t := co.cur
	if t == nil {
		return
	}
	c := co.cpu
	elapsed := c.env.Now() - co.sliceStart
	c.consume(t, co.planned)
	t.vruntime += elapsed
	co.updateMinVR()
	co.sliceTimer = sim.Timer{}
	co.planned = -1
	if t.pending == 0 {
		co.finishCurrent()
		return
	}
	// Tick preemption against this core's queue.
	if next, ok := co.runq.peek(); ok && next.vruntime+wakeupGranularity < t.vruntime {
		co.requeueCurrent()
		co.pickNext()
		return
	}
	co.startSlice()
}

// preemptCurrent stops the current slice mid-flight, charging partial
// consumption, and requeues the thread on this core.
func (co *core) preemptCurrent() {
	t := co.cur
	if t == nil {
		return
	}
	c := co.cpu
	co.sliceTimer.Cancel()
	co.sliceTimer = sim.Timer{}
	if co.planned >= 0 {
		elapsed := c.env.Now() - co.sliceStart
		consumed := c.CyclesFor(elapsed)
		if consumed > co.planned {
			consumed = co.planned
		}
		c.consume(t, consumed)
		t.vruntime += elapsed
		co.updateMinVR()
	}
	co.planned = -1
	co.requeueCurrent()
}

func (co *core) requeueCurrent() {
	t := co.cur
	co.cur = nil
	t.core = nil
	if t.pending > 0 {
		co.enqueue(t)
	} else {
		t.state = StateIdle
	}
}

// finishCurrent idles the current thread and picks new work.
func (co *core) finishCurrent() {
	t := co.cur
	co.cur = nil
	co.planned = -1
	t.core = nil
	t.state = StateIdle
	co.pickNext()
}

// pickNext pulls the lowest-vruntime thread from this core's queue — or
// steals from the busiest other core (new-idle balancing) — onto the core.
//
//lint:hotpath
func (co *core) pickNext() {
	if co.cur != nil {
		return
	}
	next, ok := co.runq.pop()
	if !ok {
		next = co.cpu.steal(co)
		if next == nil {
			return
		}
	}
	c := co.cpu
	co.cur = next
	co.planned = -1
	next.state = StateRunning
	next.core = co
	next.lastCore = co
	co.chargeCold(next)
	// Context-switch cost charged as leading work on the incoming thread.
	if c.cfg.CtxSwitchCycles > 0 {
		next.work.pushFront(workItem{remaining: c.cfg.CtxSwitchCycles, tag: metrics.TagOthers})
		next.pending += c.cfg.CtxSwitchCycles
	}
	c.env.Schedule(0, co.startSliceFn)
}

// steal takes the head of the most-loaded other core's runqueue,
// renormalizing vruntime between the queues.
func (c *CPU) steal(dst *core) *Thread {
	var src *core
	for i := range c.cores {
		co := &c.cores[i]
		if co == dst || len(co.runq) == 0 {
			continue
		}
		if src == nil || len(co.runq) > len(src.runq) {
			src = co
		}
	}
	if src == nil {
		return nil
	}
	t, _ := src.runq.pop()
	t.vruntime += dst.minVR - src.minVR
	if bound := dst.minVR - sleeperCredit; t.vruntime < bound {
		t.vruntime = bound
	}
	return t
}

// consume charges cycles through the thread's FIFO work items.
//
//lint:hotpath
func (c *CPU) consume(t *Thread, cycles int64) {
	for cycles > 0 && t.work.n > 0 {
		it := t.work.front()
		use := it.remaining
		if use > cycles {
			use = cycles
		}
		it.remaining -= use
		t.pending -= use
		t.consumed += use
		cycles -= use
		t.acct.Add(it.tag, use)
		it.tr.AddCycles(t.entity, it.tag, use) // nil-safe
		if it.remaining == 0 {
			onDone := it.onDone
			t.work.popFront()
			if onDone != nil {
				c.env.Schedule(0, onDone)
			}
		}
	}
}

// updateMinVR advances this core's monotone minimum vruntime.
func (co *core) updateMinVR() {
	min := time.Duration(1<<62 - 1)
	found := false
	if co.cur != nil {
		min = co.cur.vruntime
		found = true
	}
	if next, ok := co.runq.peek(); ok && next.vruntime < min {
		min = next.vruntime
		found = true
	}
	if found && min > co.minVR {
		co.minVR = min
	}
}

// ---------------------------------------------------------------------------
// Periodic load balancing. The balancer self-arms on wake and disarms when
// the machine is fully idle, so it never keeps the event loop alive.

func (c *CPU) armBalancer() {
	if c.balArmed {
		return
	}
	c.balArmed = true
	c.env.Schedule(balanceInterval, c.balanceFn)
}

func (c *CPU) balanceTick() {
	c.balArmed = false
	busy := false
	for i := range c.cores {
		if co := &c.cores[i]; co.cur != nil || len(co.runq) > 0 {
			busy = true
			break
		}
	}
	if !busy {
		return
	}
	// Move one queued thread from the most- to the least-loaded core
	// whenever the loads differ. A 3-vs-2 split oscillates under this rule,
	// which is exactly how long-run fairness emerges for thread counts that
	// don't divide the core count (the kernel's periodic load balancing).
	var maxC, minC *core
	for i := range c.cores {
		co := &c.cores[i]
		if maxC == nil || co.load() > maxC.load() {
			maxC = co
		}
		if minC == nil || co.load() < minC.load() {
			minC = co
		}
	}
	if maxC != minC && maxC.load() > minC.load() && len(maxC.runq) > 0 {
		t, _ := maxC.runq.pop()
		t.vruntime += minC.minVR - maxC.minVR
		if minC.cur == nil {
			c.dispatch(minC, t, wakeLatency)
		} else {
			minC.enqueue(t)
		}
	}
	c.armBalancer()
}

// ---------------------------------------------------------------------------
// Runqueue heap ordered by (vruntime, seq).

type threadHeap []*Thread

func (h threadHeap) Len() int { return len(h) }
func (h threadHeap) Less(i, j int) bool {
	if h[i].vruntime != h[j].vruntime {
		return h[i].vruntime < h[j].vruntime
	}
	return h[i].seq < h[j].seq
}
func (h threadHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *threadHeap) Push(x interface{}) { *h = append(*h, x.(*Thread)) }
func (h *threadHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

func (h *threadHeap) peek() (*Thread, bool) {
	if len(*h) == 0 {
		return nil, false
	}
	return (*h)[0], true
}

func (h *threadHeap) pop() (*Thread, bool) {
	if len(*h) == 0 {
		return nil, false
	}
	return heap.Pop(h).(*Thread), true
}
