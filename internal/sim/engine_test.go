package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestScheduleZeroAlloc asserts the pooled event path: once the free list and
// the heap's and ready lane's capacity have warmed up, a Schedule/fire cycle
// performs zero heap allocations, for a zero delay (the ready lane), a short
// (1 µs), a mid (100 µs) and a long (5 ms) delay. This is the engine
// fast-path contract hotalloc enforces statically. The case names are kept
// stable so the subtests stay comparable across engine changes.
func TestScheduleZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delay time.Duration
	}{
		{"ready", 0},
		{"heap", time.Microsecond},
		{"L0", 100 * time.Microsecond},
		{"L1", 5 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv(1)
			fn := func() {}
			cycle := func() {
				env.Schedule(tc.delay, fn)
				if err := env.Run(); err != nil {
					t.Fatal(err)
				}
			}
			// Warm the free list and the heap.
			for i := 0; i < 1024; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
				t.Fatalf("Schedule/fire cycle allocates %v objects at steady state, want 0", allocs)
			}
		})
	}
}

// TestScheduleCancelZeroAlloc is the same assertion for the cancel path:
// arming and cancelling a timeout must not allocate either.
func TestScheduleCancelZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	fn := func() {}
	for i := 0; i < 256; i++ {
		env.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm := env.Schedule(time.Microsecond, fn)
		tm.Cancel()
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Schedule/Cancel cycle allocates %v objects at steady state, want 0", allocs)
	}
}

// TestTimerWhenSafe covers the Timer.When contract: the zero Timer, a nil
// *Timer, and fired or cancelled timers all report 0 instead of panicking.
func TestTimerWhenSafe(t *testing.T) {
	var zero Timer
	if got := zero.When(); got != 0 {
		t.Fatalf("zero Timer When() = %v, want 0", got)
	}
	var nilTimer *Timer
	if got := nilTimer.When(); got != 0 {
		t.Fatalf("nil *Timer When() = %v, want 0", got)
	}
	if nilTimer.Cancel() {
		t.Fatal("nil *Timer Cancel() = true")
	}

	env := NewEnv(1)
	tm := env.Schedule(3*time.Millisecond, func() {})
	if got := tm.When(); got != 3*time.Millisecond {
		t.Fatalf("pending When() = %v, want 3ms", got)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tm.When(); got != 0 {
		t.Fatalf("fired When() = %v, want 0", got)
	}

	tm2 := env.Schedule(time.Millisecond, func() {})
	tm2.Cancel()
	if got := tm2.When(); got != 0 {
		t.Fatalf("cancelled When() = %v, want 0", got)
	}
}

// TestStaleTimerCannotResurrect proves the generation counter: a Timer whose
// event has fired and been recycled into a new callback must not cancel (or
// report times for) the new occupant.
func TestStaleTimerCannotResurrect(t *testing.T) {
	env := NewEnv(1)
	stale := env.Schedule(time.Millisecond, func() {})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// The free list now holds stale's event struct; this Schedule reuses it.
	fired := false
	fresh := env.Schedule(time.Millisecond, func() { fired = true })
	if stale.ev != fresh.ev {
		t.Fatalf("free list did not recycle the event struct (stale %p, fresh %p)", stale.ev, fresh.ev)
	}
	if stale.Cancel() {
		t.Fatal("stale Timer cancelled a recycled event")
	}
	if got := stale.When(); got != 0 {
		t.Fatalf("stale When() = %v, want 0", got)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("recycled event did not fire; a stale Timer suppressed it")
	}
}

// TestPendingTracksCancel covers the live-event counter: Pending reports the
// real queue depth while cancelled entries may still occupy heap slots.
func TestPendingTracksCancel(t *testing.T) {
	env := NewEnv(1)
	fn := func() {}
	timers := make([]Timer, 10)
	for i := range timers {
		timers[i] = env.Schedule(time.Duration(i+1)*time.Millisecond, fn)
	}
	if got := env.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	for i := 0; i < 4; i++ {
		if !timers[i].Cancel() {
			t.Fatalf("Cancel #%d failed", i)
		}
	}
	if got := env.Pending(); got != 6 {
		t.Fatalf("Pending after 4 cancels = %d, want 6", got)
	}
	if timers[0].Cancel() {
		t.Fatal("double Cancel returned true")
	}
	if got := env.Pending(); got != 6 {
		t.Fatalf("Pending after double cancel = %d, want 6", got)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := env.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
	if got := env.Fired(); got != 6 {
		t.Fatalf("Fired = %d, want 6", got)
	}
}

// TestCancelHeavyTimeoutWorkload is the pattern that used to leak: a
// consumer arming a timeout per operation that is almost always cancelled.
// Pending must track the real depth throughout, the heap must compact (no
// unbounded growth of dead entries), and delivery must stay deterministic.
func TestCancelHeavyTimeoutWorkload(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, 0)
	const items = 500
	var got []int
	env.Go("producer", func(p *Proc) {
		for i := 0; i < items; i++ {
			p.Sleep(time.Microsecond)
			q.Put(p, i)
		}
		q.Close()
	})
	env.Go("consumer", func(p *Proc) {
		for {
			// Every GetTimeout arms a timer that the wake-up path cancels.
			v, ok := q.GetTimeout(p, time.Second)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != items {
		t.Fatalf("consumed %d items, want %d", len(got), items)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
	if got := env.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0 (cancelled timeouts leaked)", got)
	}
	if n := len(env.events); n >= items {
		t.Fatalf("heap holds %d entries after a %d-item cancel-heavy run; compaction never ran", n, items)
	}
	env.Close()
}

// TestCancelEveryPendingTimer cancels all of N >= minCompact timers so
// compaction runs with zero survivors. eventHeap.init used to index out of
// range on the emptied heap ((len-2)/4 truncates to 0 for len 0), crashing
// the engine on exactly the cancel-heavy workloads compaction targets.
func TestCancelEveryPendingTimer(t *testing.T) {
	env := NewEnv(1)
	// Exactly minCompact: the last Cancel is the one that trips compaction
	// (ncancel > len/2 and >= minCompact) with nothing left to keep.
	const n = minCompact
	timers := make([]Timer, n)
	for i := 0; i < n; i++ {
		timers[i] = env.Schedule(time.Duration(i+1)*time.Millisecond, func() {
			t.Errorf("cancelled timer #%d fired", i)
		})
	}
	for i := range timers {
		if !timers[i].Cancel() {
			t.Fatalf("Cancel #%d failed", i)
		}
	}
	if got := env.Pending(); got != 0 {
		t.Fatalf("Pending after cancelling everything = %d, want 0", got)
	}
	if n := len(env.events); n != 0 {
		t.Fatalf("heap holds %d entries after cancelling everything, want 0", n)
	}
	// The engine must still be usable after an empty-heap compaction.
	fired := false
	env.Schedule(time.Millisecond, func() { fired = true })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("timer scheduled after empty-heap compaction never fired")
	}
}

// TestCompactionPreservesOrder mass-cancels interleaved timers so compaction
// triggers mid-stream, then checks the survivors fire in exactly (at, seq)
// order.
func TestCompactionPreservesOrder(t *testing.T) {
	env := NewEnv(1)
	const n = 1000
	var fired []int
	timers := make([]Timer, n)
	for i := 0; i < n; i++ {
		i := i
		// Deliberately non-monotone times so heap order differs from
		// schedule order.
		at := time.Duration((i*37)%n+1) * time.Millisecond
		timers[i] = env.Schedule(at, func() { fired = append(fired, i) })
	}
	// Cancel ~70% (every index not divisible by 3), enough to trip
	// compaction several times over.
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
	last := time.Duration(-1)
	lastIdx := -1
	for _, i := range fired {
		at := time.Duration((i*37)%n+1) * time.Millisecond
		if at < last || (at == last && i < lastIdx) {
			t.Fatalf("events fired out of (at, seq) order: %d (at %v) after %d (at %v)", i, at, lastIdx, last)
		}
		last, lastIdx = at, i
	}
}

// TestEngineDeterminismUnderCancel replays a mixed schedule/cancel workload
// twice; compaction timing must not leak into the observable event order.
func TestEngineDeterminismUnderCancel(t *testing.T) {
	run := func() []string {
		env := NewEnv(99)
		var trace []string
		var timers []Timer
		for i := 0; i < 400; i++ {
			i := i
			d := time.Duration(env.Rand().Intn(5000)) * time.Microsecond
			timers = append(timers, env.Schedule(d, func() {
				trace = append(trace, env.Now().String())
				_ = i
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

// TestCancellationStormDuringDispatch is the storm regression: waves of
// timers where each firing callback mass-cancels the rest of its wave and
// schedules the next one. Cancellation here happens inside dispatch — while
// the engine is popping the heap — across enough waves to trip compaction
// repeatedly. Pending must stay exact, no cancelled timer may fire, and the
// heap must not accumulate dead entries across waves.
func TestCancellationStormDuringDispatch(t *testing.T) {
	env := NewEnv(1)
	const (
		waves    = 8
		perWave  = 2 * minCompact
		survivor = 0 // index within the wave that fires and runs the storm
	)
	firedPerWave := make([]int, waves)
	var launch func(wave int)
	launch = func(wave int) {
		if wave == waves {
			return
		}
		timers := make([]Timer, perWave)
		for i := 0; i < perWave; i++ {
			i := i
			// The survivor is earliest, so it fires first and cancels the
			// rest of the wave from inside its callback.
			at := time.Duration(i+1) * time.Millisecond
			timers[i] = env.Schedule(at, func() {
				firedPerWave[wave]++
				if i != survivor {
					t.Errorf("wave %d: cancelled timer %d fired", wave, i)
					return
				}
				for j := survivor + 1; j < perWave; j++ {
					if !timers[j].Cancel() {
						t.Errorf("wave %d: Cancel(%d) failed mid-dispatch", wave, j)
					}
				}
				// Double-cancel inside the storm must stay a no-op.
				if timers[survivor].Cancel() {
					t.Errorf("wave %d: cancelling the firing timer returned true", wave)
				}
				launch(wave + 1)
			})
		}
	}
	launch(0)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for w, n := range firedPerWave {
		if n != 1 {
			t.Fatalf("wave %d fired %d callbacks, want 1 (the survivor)", w, n)
		}
	}
	if got := env.Pending(); got != 0 {
		t.Fatalf("Pending after the storm = %d, want 0", got)
	}
	if n := len(env.events); n >= perWave {
		t.Fatalf("heap holds %d dead entries after %d storm waves; compaction never caught up", n, waves)
	}
}

// spreadDelay draws a delay from a plain spread over the engine's timer mix:
// sub-microsecond, up to 300 µs, up to 17 ms, or up to 34 ms, each band
// equally likely.
func spreadDelay(r *rand.Rand) time.Duration {
	bands := [...]time.Duration{time.Microsecond, 300 * time.Microsecond, 17 * time.Millisecond, 34 * time.Millisecond}
	return time.Duration(r.Int63n(int64(bands[r.Intn(len(bands))])))
}

// scheduleSpread schedules n timers with spreadDelay delays and returns the
// expected firing order: (at, seq) with seq equal to schedule order.
func scheduleSpread(env *Env, n int, record func(i int)) []int {
	type slot struct {
		at  time.Duration
		idx int
	}
	slots := make([]slot, 0, n)
	for i := 0; i < n; i++ {
		i := i
		d := spreadDelay(env.Rand())
		slots = append(slots, slot{env.Now() + d, i})
		env.Schedule(d, func() { record(i) })
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].at < slots[b].at })
	want := make([]int, n)
	for i, s := range slots {
		want[i] = s.idx
	}
	return want
}

// checkOrder fails t unless fired is exactly want.
func checkOrder(t *testing.T, fired, want []int) {
	t.Helper()
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing order diverges at %d: got #%d, want #%d", i, fired[i], want[i])
		}
	}
}

// TestOrderAcrossDelaySpread checks the engine's core contract over a spread
// of delays from sub-microsecond to ~34 ms: events fire in exact (at, seq)
// order.
func TestOrderAcrossDelaySpread(t *testing.T) {
	env := NewEnv(7)
	var fired []int
	want := scheduleSpread(env, 800, func(i int) { fired = append(fired, i) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	checkOrder(t, fired, want)
}

// TestOrderAfterClockAdvance re-runs the ordering check once the clock has
// advanced well past every delay in the spread.
func TestOrderAfterClockAdvance(t *testing.T) {
	env := NewEnv(11)
	env.Schedule(50*time.Millisecond, func() {})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	var fired []int
	want := scheduleSpread(env, 800, func(i int) { fired = append(fired, i) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	checkOrder(t, fired, want)
}

// TestCancelAcrossDelaySpread cancels two thirds of a spread of timers;
// survivors must still fire in exact order and the tombstones must drain
// away without leaking.
func TestCancelAcrossDelaySpread(t *testing.T) {
	env := NewEnv(23)
	const n = 600
	var fired []int
	timers := make([]Timer, n)
	ats := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		i := i
		d := spreadDelay(env.Rand())
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
	if n := len(env.events); n != 0 {
		t.Fatalf("heap holds %d entries after the run: tombstones leaked", n)
	}
}

// TestNextAtBounds pins the NextAt contract: false on an empty engine, exact
// for a live head, and a conservative bound — never later than the next live
// event, never before the clock — when the head is a cancelled tombstone.
func TestNextAtBounds(t *testing.T) {
	env := NewEnv(1)
	if _, ok := env.NextAt(); ok {
		t.Fatal("NextAt on an empty engine reports a pending event")
	}
	far := 40 * time.Millisecond
	farTimer := env.Schedule(far, func() {})
	if at, ok := env.NextAt(); !ok || at != int64(far) {
		t.Fatalf("NextAt = (%d, %v), want exact (%d, true)", at, ok, int64(far))
	}
	near := 100 * time.Microsecond
	nearTimer := env.Schedule(near, func() {})
	if at, ok := env.NextAt(); !ok || at != int64(near) {
		t.Fatalf("NextAt = (%d, %v), want exact (%d, true)", at, ok, int64(near))
	}
	// A cancelled head stays in the heap as a tombstone: the bound is its
	// timestamp, earlier than the next live event.
	nearTimer.Cancel()
	at, ok := env.NextAt()
	if !ok {
		t.Fatal("NextAt lost the pending events")
	}
	if at > int64(far) || at < int64(env.Now()) {
		t.Fatalf("NextAt = %d, want within [%d, %d]", at, int64(env.Now()), int64(far))
	}
	if err := env.RunUntil(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if at, ok := env.NextAt(); !ok || at != int64(far) {
		t.Fatalf("NextAt after the tombstone drained = (%d, %v), want exact (%d, true)", at, ok, int64(far))
	}
	farTimer.Cancel()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.NextAt(); ok {
		t.Fatal("NextAt after draining reports a pending event")
	}
}

// TestDeterminismAcrossDelaySpread replays a schedule/cancel workload over
// the delay spread twice; the traces must be identical.
func TestDeterminismAcrossDelaySpread(t *testing.T) {
	run := func() []string {
		env := NewEnv(321)
		var trace []string
		var timers []Timer
		for i := 0; i < 500; i++ {
			timers = append(timers, env.Schedule(spreadDelay(env.Rand()), func() {
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
	// Warm up: free list, heap capacity, proc wake binding.
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

// TestSignalZeroAlloc asserts that a steady-state Signal.Wait / Signal and
// Signal.Wait / Broadcast round trip performs zero heap allocations: the
// waiter is the Proc's own wait generation, and the waiter list keeps its
// backing array.
func TestSignalZeroAlloc(t *testing.T) {
	for _, broadcast := range []bool{false, true} {
		t.Run(fmt.Sprintf("broadcast=%v", broadcast), func(t *testing.T) {
			env := NewEnv(1)
			var sig Signal
			for i := 0; i < 2; i++ {
				env.Go("waiter", func(p *Proc) {
					for {
						sig.Wait(p)
					}
				})
			}
			env.Go("signaller", func(p *Proc) {
				for {
					p.Sleep(time.Microsecond)
					if broadcast {
						sig.Broadcast()
					} else {
						sig.Signal()
					}
				}
			})
			if err := env.RunFor(256 * time.Microsecond); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(1000, func() {
				if err := env.RunFor(time.Microsecond); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("signal round trip allocates %v objects at steady state, want 0", allocs)
			}
			env.Close()
		})
	}
}

// TestWaitTimeoutZeroAlloc asserts that timed waits allocate nothing at
// steady state, whether they time out (Signal.WaitTimeout) or are ended by
// a push (Queue.GetTimeout): the timer runs the Proc's prebound timeout
// callback, and the wait's state lives in the Proc.
func TestWaitTimeoutZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	var sig Signal
	q := NewQueue[int](env, 0)
	var timeouts, gets int
	env.Go("waiter", func(p *Proc) {
		for {
			if !sig.WaitTimeout(p, 2*time.Microsecond) {
				timeouts++
			}
			if _, ok := q.GetTimeout(p, 10*time.Microsecond); ok {
				gets++
			}
		}
	})
	env.Go("producer", func(p *Proc) {
		for {
			p.Sleep(8 * time.Microsecond)
			q.Put(p, 1)
		}
	})
	if err := env.RunFor(256 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := env.RunFor(8 * time.Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("timed waits allocate %v objects at steady state, want 0", allocs)
	}
	if timeouts < 1000 || gets < 1000 {
		t.Fatalf("timeouts %d, gets %d: want both paths taken every cycle", timeouts, gets)
	}
	env.Close()
}
