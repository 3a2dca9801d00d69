package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	env := NewEnv(1)
	var got []int
	env.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	env.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	env.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if env.Now() != 3*time.Millisecond {
		t.Fatalf("Now() = %v, want 3ms", env.Now())
	}
}

func TestScheduleTieBreakFIFO(t *testing.T) {
	env := NewEnv(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		env.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestTimerCancel(t *testing.T) {
	env := NewEnv(1)
	fired := false
	tm := env.Schedule(time.Millisecond, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("Cancel on pending timer returned false")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	env := NewEnv(1)
	tm := env.Schedule(time.Millisecond, func() {})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if tm.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestProcSleep(t *testing.T) {
	env := NewEnv(1)
	var wake time.Duration
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		wake = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", wake)
	}
	if env.Live() != 0 {
		t.Fatalf("Live() = %d after Run", env.Live())
	}
	// Two resumes (the start and the wake from Sleep) and nothing else:
	// a plain event resumes no Proc.
	env.Schedule(time.Millisecond, func() {})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Resumes() != 2 || env.Fired() != 3 {
		t.Fatalf("Resumes() = %d, Fired() = %d; want 2 and 3", env.Resumes(), env.Fired())
	}
}

func TestProcInterleaving(t *testing.T) {
	env := NewEnv(1)
	var trace []string
	mk := func(name string, d time.Duration) {
		env.Go(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(d)
				trace = append(trace, fmt.Sprintf("%s@%v", name, env.Now()))
			}
		})
	}
	mk("a", 2*time.Millisecond)
	mk("b", 3*time.Millisecond)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Both wake at 6ms; b's wake event was scheduled earlier (at 3ms) than
	// a's (at 4ms), so FIFO tie-breaking runs b first.
	want := []string{"a@2ms", "b@3ms", "a@4ms", "b@6ms", "a@6ms", "b@9ms"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

// TestProcPanicPropagates checks that a panicking Proc ends Run with an
// error naming the Proc and the panic, and that a second Run carries on with
// the other Procs.
func TestProcPanicPropagates(t *testing.T) {
	env := NewEnv(1)
	env.Go("bad", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	resumed := time.Duration(-1)
	env.Go("other", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		resumed = env.Now()
	})
	err := env.Run()
	var pe *procPanic
	if !errors.As(err, &pe) || pe.proc != "bad" || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run() = %v, want the panic of process bad", err)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != 2*time.Millisecond {
		t.Fatalf("other resumed at %v, want 2ms", resumed)
	}
	if env.Live() != 0 {
		t.Fatalf("Live() = %d, want 0", env.Live())
	}
}

func TestRunUntil(t *testing.T) {
	env := NewEnv(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		env.Schedule(time.Millisecond, tick)
	}
	env.Schedule(time.Millisecond, tick)
	if err := env.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if env.Now() != 10*time.Millisecond {
		t.Fatalf("Now() = %v", env.Now())
	}
	if err := env.RunFor(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if count != 15 {
		t.Fatalf("count = %d, want 15", count)
	}
	env.Close()
}

func TestStop(t *testing.T) {
	env := NewEnv(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n == 5 {
			env.Stop()
		}
		env.Schedule(time.Millisecond, tick)
	}
	env.Schedule(time.Millisecond, tick)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
	env.Close()
}

// TestEndParkedProc: a Proc that ends a parked one runs its defers inside
// the call, schedules no event and keeps running itself; ending it again,
// or a Proc that already finished, does nothing.
func TestEndParkedProc(t *testing.T) {
	env := NewEnv(1)
	var sig Signal
	deferred := 0
	parked := env.Go("parked", func(p *Proc) {
		defer func() { deferred++ }()
		sig.Wait(p) // never signalled
	})
	finished := env.Go("finished", func(p *Proc) {})
	env.Go("ender", func(p *Proc) {
		p.Sleep(time.Millisecond)
		fired, live := env.Fired(), env.Live()
		parked.End()
		if deferred != 1 || env.Live() != live-1 || env.Fired() != fired || env.Pending() != 0 {
			t.Errorf("after End: %d defers run, Live %d (was %d), fired %d (was %d), %d pending",
				deferred, env.Live(), live, env.Fired(), fired, env.Pending())
		}
		parked.End()
		finished.End()
		p.Sleep(time.Millisecond)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if deferred != 1 || env.Live() != 0 || env.Now() != 2*time.Millisecond {
		t.Fatalf("%d defers run, Live %d at %v", deferred, env.Live(), env.Now())
	}
}

// TestCloseAbortsParkedProcs checks Close on parked and unstarted Procs:
// every parked Proc unwinds through its defers, an unstarted Proc never runs
// its body, and no goroutine outlives the Env.
func TestCloseAbortsParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	var sig Signal
	deferred := 0
	for i := 0; i < 4; i++ {
		env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			defer func() { deferred++ }()
			sig.Wait(p) // never signalled
		})
	}
	bodies := 0
	for i := 0; i < 2; i++ {
		env.GoAfter(time.Hour, fmt.Sprintf("late%d", i), func(p *Proc) { bodies++ })
	}
	if err := env.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if env.Live() != 6 {
		t.Fatalf("Live() = %d, want 6", env.Live())
	}
	env.Close()
	if env.Live() != 0 {
		t.Fatalf("Live() = %d after Close", env.Live())
	}
	if deferred != 4 {
		t.Fatalf("%d of 4 parked Procs ran their defers on Close", deferred)
	}
	if bodies != 0 {
		t.Fatalf("%d unstarted Procs ran their body on Close", bodies)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("NumGoroutine() = %d after Close, want %d", after, before)
	}
}

// TestJoinPanickedProc checks that a Proc joining one that panicked, through
// a Signal the panicking Proc fires from a defer, is woken at the panic's
// instant, while Run still reports the panic.
func TestJoinPanickedProc(t *testing.T) {
	env := NewEnv(1)
	var done Signal
	bad := env.Go("bad", func(p *Proc) {
		defer done.Broadcast()
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	joined := time.Duration(-1)
	env.Go("joiner", func(p *Proc) {
		done.Wait(p)
		joined = env.Now()
	})
	err := env.Run()
	var pe *procPanic
	if !errors.As(err, &pe) || pe.proc != "bad" || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run() = %v, want the panic of process bad", err)
	}
	if !bad.done {
		t.Fatal("bad is not done after its panic")
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != time.Millisecond {
		t.Fatalf("joiner resumed at %v, want 1ms", joined)
	}
	if env.Live() != 0 {
		t.Fatalf("Live() = %d, want 0", env.Live())
	}
}

// TestWaitTimeoutRacesSignal fires a timed wait's timer and a Signal at the
// same instant, in both orders. The Proc must be woken exactly once: a stray
// second wake would cut its following Sleep short.
func TestWaitTimeoutRacesSignal(t *testing.T) {
	for _, signalFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("signalFirst=%v", signalFirst), func(t *testing.T) {
			env := NewEnv(1)
			var sig Signal
			found := false
			signal := func() { found = sig.Signal() }
			if signalFirst {
				// Queued before the Proc starts, so it precedes the timer.
				env.Schedule(time.Millisecond, signal)
			}
			var ok bool
			var woke, slept time.Duration
			env.Go("waiter", func(p *Proc) {
				ok = waitTimeout(p, &sig, time.Millisecond)
				woke = env.Now()
				p.Sleep(time.Millisecond)
				slept = env.Now()
			})
			if !signalFirst {
				// Queued after the Proc has armed its timer.
				env.Schedule(0, func() { env.Schedule(time.Millisecond, signal) })
			}
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if ok != signalFirst || found != signalFirst {
				t.Fatalf("timed wait = %v, Signal found a waiter = %v; want both %v", ok, found, signalFirst)
			}
			if woke != time.Millisecond || slept != 2*time.Millisecond {
				t.Fatalf("woke at %v, slept until %v; want 1ms and 2ms", woke, slept)
			}
			if sig.Waiters() != 0 {
				t.Fatalf("Waiters() = %d, want 0", sig.Waiters())
			}
		})
	}
}

// waitTimeout is a Proc's timed wait on s, the continuation form parked on
// with ArmInline: it reports false when d elapsed first.
func waitTimeout(p *Proc, s *Signal, d time.Duration) bool {
	var w TimedWait
	s.notifyTimeout(p.env, &w, d, p.ArmInline())
	p.Await()
	return !w.expired
}

func TestSignalWakeOrder(t *testing.T) {
	env := NewEnv(1)
	var sig Signal
	var got []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		env.Go(name, func(p *Proc) {
			sig.Wait(p)
			got = append(got, name)
		})
	}
	env.Schedule(time.Millisecond, func() {
		if !sig.Signal() {
			t.Error("Signal found no waiters")
		}
	})
	env.Schedule(2*time.Millisecond, func() { sig.Broadcast() })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wake order = %v, want FIFO %v", got, want)
		}
	}
}

func TestSignalWaitTimeout(t *testing.T) {
	env := NewEnv(1)
	var sig Signal
	var timedOut, signalled bool
	env.Go("timeout", func(p *Proc) {
		timedOut = !waitTimeout(p, &sig, time.Millisecond)
	})
	env.Go("signalled", func(p *Proc) {
		p.Sleep(2 * time.Millisecond) // first waiter already timed out
		signalled = waitTimeout(p, &sig, 10*time.Millisecond)
	})
	env.Schedule(5*time.Millisecond, func() { sig.Broadcast() })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Fatal("first waiter should have timed out")
	}
	if !signalled {
		t.Fatal("second waiter should have been signalled")
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	env := NewEnv(1)
	var mu Mutex
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			mu.Lock(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(time.Millisecond)
			inside--
			mu.Unlock()
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("maxInside = %d, want 1", maxInside)
	}
	if env.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms (serialized)", env.Now())
	}
}

func TestQueueFIFO(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, 0)
	var got []int
	env.Go("producer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			q.Put(p, i)
			p.Sleep(time.Microsecond)
		}
		q.Close()
	})
	env.Go("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d items", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestQueueBlockingBounded(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, 2)
	var putDone time.Duration
	env.Go("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			q.Put(p, i) // third Put must block until consumer runs
		}
		putDone = env.Now()
	})
	env.Go("consumer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		if v, ok := q.Get(p); !ok || v != 0 {
			t.Errorf("Get = %d,%v", v, ok)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if putDone != 5*time.Millisecond {
		t.Fatalf("third Put completed at %v, want 5ms", putDone)
	}
	env.Close()
}

func TestQueueGetTimeout(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[string](env, 0)
	var w TimedWait
	var ok1, ok2 bool
	var at1, at2 time.Duration
	second := func() { _, ok2 = q.TryGet(); at2 = env.Now() }
	first := func() {
		_, ok1 = q.TryGet()
		at1 = env.Now()
		q.GetTimeoutThen(&w, 10*time.Millisecond, second)
	}
	env.Schedule(0, func() { q.GetTimeoutThen(&w, time.Millisecond, first) })
	env.Go("producer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		q.Put(p, "hello")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if ok1 || at1 != time.Millisecond {
		t.Fatalf("first wait got an item = %v at %v; want a timeout at 1ms", ok1, at1)
	}
	if !ok2 || at2 != 5*time.Millisecond {
		t.Fatalf("second wait got an item = %v at %v; want the item at 5ms", ok2, at2)
	}
	if env.Pending() != 0 {
		t.Fatalf("Pending() = %d after the run: the woken wait's timer was not cancelled", env.Pending())
	}
}

func TestQueueTryOps(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, 1)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	if !q.TryPut(7) {
		t.Fatal("TryPut on empty queue failed")
	}
	if q.TryPut(8) {
		t.Fatal("TryPut on full queue succeeded")
	}
	if v, ok := q.TryGet(); !ok || v != 7 {
		t.Fatalf("TryGet = %d,%v", v, ok)
	}
}

// TestDeterminism runs a moderately complex mixed workload twice and checks
// the traces are identical — the core guarantee everything else leans on.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		env := NewEnv(42)
		var trace []string
		q := NewQueue[int](env, 4)
		var sig Signal
		for i := 0; i < 5; i++ {
			i := i
			env.Go(fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(time.Duration(env.Rand().Intn(1000)) * time.Microsecond)
					q.Put(p, i*100+j)
				}
			})
		}
		env.Go("cons", func(p *Proc) {
			for n := 0; n < 100; n++ {
				v, _ := q.Get(p)
				trace = append(trace, fmt.Sprintf("%v:%d", env.Now(), v))
				if n == 50 {
					sig.Broadcast()
				}
			}
		})
		env.Go("waiter", func(p *Proc) {
			sig.Wait(p)
			trace = append(trace, fmt.Sprintf("woke@%v", env.Now()))
		})
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

// Property: for any sequence of Put values, Get returns exactly that
// sequence (FIFO preservation through arbitrary blocking interleavings).
func TestQueueFIFOProperty(t *testing.T) {
	f := func(values []int16, capSeed uint8) bool {
		env := NewEnv(7)
		capacity := int(capSeed % 8) // 0..7, 0 = unbounded
		q := NewQueue[int16](env, capacity)
		var got []int16
		env.Go("p", func(p *Proc) {
			for _, v := range values {
				q.Put(p, v)
			}
			q.Close()
		})
		env.Go("c", func(p *Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		if err := env.Run(); err != nil {
			return false
		}
		if len(got) != len(values) {
			return false
		}
		for i := range values {
			if got[i] != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: N processes sleeping random durations always finish with the
// clock at the max duration, and Live() drains to zero.
func TestSleepMaxProperty(t *testing.T) {
	f := func(ds []uint16) bool {
		env := NewEnv(3)
		var max time.Duration
		for i, d := range ds {
			dur := time.Duration(d) * time.Microsecond
			if dur > max {
				max = dur
			}
			env.Go(fmt.Sprintf("s%d", i), func(p *Proc) { p.Sleep(dur) })
		}
		if err := env.Run(); err != nil {
			return false
		}
		return env.Now() == max && env.Live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
