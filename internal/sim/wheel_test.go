package sim

import (
	"sort"
	"testing"
	"time"
)

// Wheel geometry in time units, for steering events into a specific lane.
const (
	tickNs      = time.Duration(1) << tickShift              // 1.024 µs: one L0 bucket
	l0HorizonNs = time.Duration(wheelL0Slots) << tickShift   // ~262 µs: L0 coverage
	l1HorizonNs = time.Duration(wheelL1Slots) << l1TickShift // ~16.8 ms: L1 coverage
)

// scheduleMixed schedules n timers with delays spanning every lane — sub-tick
// (heap), L0, L1, and beyond the horizon (heap again) — and returns the
// expected firing order: (at, seq) with seq equal to schedule order.
func scheduleMixed(env *Env, n int, record func(i int)) []int {
	type slot struct {
		at  time.Duration
		idx int
	}
	slots := make([]slot, 0, n)
	for i := 0; i < n; i++ {
		i := i
		var d time.Duration
		switch env.Rand().Intn(4) {
		case 0: // sub-tick: rides the heap
			d = time.Duration(env.Rand().Intn(int(tickNs)))
		case 1: // L0 window
			d = tickNs + time.Duration(env.Rand().Intn(int(l0HorizonNs-tickNs)))
		case 2: // L1 window
			d = l0HorizonNs + time.Duration(env.Rand().Intn(int(l1HorizonNs-l0HorizonNs)))
		default: // beyond the horizon: heap
			d = l1HorizonNs + time.Duration(env.Rand().Intn(int(l1HorizonNs)))
		}
		at := env.Now() + d
		slots = append(slots, slot{at, i})
		env.Schedule(d, func() { record(i) })
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].at < slots[b].at })
	want := make([]int, n)
	for i, s := range slots {
		want[i] = s.idx
	}
	return want
}

// TestWheelOrderAcrossLanes checks the engine's core contract with the wheel
// in place: no matter which container an event rode in, events fire in exact
// (at, seq) order — the wheel must be unobservable.
func TestWheelOrderAcrossLanes(t *testing.T) {
	env := NewEnv(7)
	var fired []int
	want := scheduleMixed(env, 800, func(i int) { fired = append(fired, i) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing order diverges at %d: got #%d, want #%d", i, fired[i], want[i])
		}
	}
}

// TestWheelOrderAfterCursorAdvance re-runs the mixed-lane ordering check
// after the clock (and therefore the wheel cursor) has advanced far enough
// that both slot rings have wrapped many times.
func TestWheelOrderAfterCursorAdvance(t *testing.T) {
	env := NewEnv(11)
	env.Schedule(50*time.Millisecond, func() {})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	var fired []int
	want := scheduleMixed(env, 800, func(i int) { fired = append(fired, i) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing order diverges at %d: got #%d, want #%d", i, fired[i], want[i])
		}
	}
}

// TestWheelWindowBoundaryCrossing is the livelock regression: an L0 drain at
// the last tick of an L1 window used to carry the cursor exactly onto the
// next window's start without cascading that window's occupied L1 bucket,
// after which drainTo kept draining empty L0 slots at a cursor that never
// passed the bucket's window-start bound. Both events must fire.
func TestWheelWindowBoundaryCrossing(t *testing.T) {
	env := NewEnv(1)
	var fired []string
	// Last tick of L1 window 0: lands in L0.
	env.Schedule((time.Duration(wheelL0Slots-1))<<tickShift, func() { fired = append(fired, "a") })
	// Mid L1 window 1: lands in an L1 bucket that must cascade after the
	// cursor crosses the boundary.
	env.Schedule((time.Duration(wheelL0Slots+44))<<tickShift, func() { fired = append(fired, "b") })
	// Exactly the window-1 start tick, for the tie on the boundary itself.
	env.Schedule((time.Duration(wheelL0Slots))<<tickShift, func() { fired = append(fired, "c") })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(fired); got != 3 {
		t.Fatalf("%d of 3 events fired across the L1 window boundary: %v", got, fired)
	}
	if fired[0] != "a" || fired[1] != "c" || fired[2] != "b" {
		t.Fatalf("events fired out of order across the window boundary: %v", fired)
	}
}

// TestWheelCancelInBuckets cancels a majority of wheel-resident timers;
// survivors must still fire in exact order and the tombstones must drain
// away without leaking (queueEmpty after the run).
func TestWheelCancelInBuckets(t *testing.T) {
	env := NewEnv(23)
	const n = 600
	var fired []int
	timers := make([]Timer, n)
	ats := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		i := i
		d := tickNs + time.Duration(env.Rand().Intn(int(l1HorizonNs)))
		ats[i] = env.Now() + d
		timers[i] = env.Schedule(d, func() { fired = append(fired, i) })
	}
	want := 0
	for i := range timers {
		if i%3 == 0 {
			want++
			continue
		}
		if !timers[i].Cancel() {
			t.Fatalf("Cancel #%d failed", i)
		}
	}
	if got := env.Pending(); got != want {
		t.Fatalf("Pending = %d, want %d", got, want)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != want {
		t.Fatalf("fired %d events, want %d", len(fired), want)
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if ats[b] < ats[a] || (ats[b] == ats[a] && b < a) {
			t.Fatalf("survivors fired out of (at, seq) order: #%d then #%d", a, b)
		}
	}
	if !env.queueEmpty() {
		t.Fatal("lanes not empty after run: tombstones leaked")
	}
}

// TestNextAtBounds pins the NextAt contract: false on an empty engine, exact
// for heap-resident events, and a conservative lower bound — never later
// than the true next event, never before the current clock's bucket — for
// wheel-resident ones.
func TestNextAtBounds(t *testing.T) {
	env := NewEnv(1)
	if _, ok := env.NextAt(); ok {
		t.Fatal("NextAt on an empty engine reports a pending event")
	}
	// Beyond the horizon: heap lane, bound is exact.
	far := env.Schedule(2*l1HorizonNs, func() {})
	if at, ok := env.NextAt(); !ok || at != int64(2*l1HorizonNs) {
		t.Fatalf("NextAt for heap event = (%d, %v), want exact (%d, true)", at, ok, int64(2*l1HorizonNs))
	}
	// An earlier wheel event: bound must move to at most its timestamp.
	wheelAt := 100 * time.Microsecond
	env.Schedule(wheelAt, func() {})
	at, ok := env.NextAt()
	if !ok {
		t.Fatal("NextAt lost the pending events")
	}
	if at > int64(wheelAt) {
		t.Fatalf("NextAt = %d is later than the next event at %d", at, int64(wheelAt))
	}
	if at < 0 {
		t.Fatalf("NextAt = %d is before the clock", at)
	}
	far.Cancel()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.NextAt(); ok {
		t.Fatal("NextAt after draining reports a pending event")
	}
}

// TestWheelDeterminism replays a mixed-lane schedule/cancel workload twice;
// traces must be byte-identical — bucket drains and cascades cannot leak
// into observable order.
func TestWheelDeterminism(t *testing.T) {
	run := func() []string {
		env := NewEnv(321)
		var trace []string
		var timers []Timer
		for i := 0; i < 500; i++ {
			d := time.Duration(env.Rand().Int63n(int64(2 * l1HorizonNs)))
			timers = append(timers, env.Schedule(d, func() {
				trace = append(trace, env.Now().String())
			}))
		}
		for i := 0; i < len(timers); i += 2 {
			timers[i].Cancel()
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestProcSleepZeroAlloc asserts the proc-sleep fast path: a park/sleep/wake
// cycle of a long-lived proc performs zero heap allocations at steady state.
// Building the env and proc is not part of the contract and does allocate;
// the recurring cycle is what the engine guarantees.
func TestProcSleepZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	env.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	// Warm up: free list, wheel buckets, proc wake binding.
	if err := env.RunFor(256 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := env.RunFor(time.Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("proc sleep cycle allocates %v objects at steady state, want 0", allocs)
	}
	env.Close()
}
