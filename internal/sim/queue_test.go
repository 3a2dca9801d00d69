package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestQueueZeroAlloc: once a queue's ring has grown to its working set, Put
// and Get reuse it as the head walks around the wrap, on bounded and
// unbounded queues alike.
func TestQueueZeroAlloc(t *testing.T) {
	for _, capacity := range []int{0, 3} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			env := NewEnv(1)
			defer env.Close()
			q := NewQueue[int](env, capacity)
			q.TryPut(0)
			q.TryPut(1)
			if allocs := testing.AllocsPerRun(1000, func() {
				q.TryPut(2)
				q.TryGet()
			}); allocs != 0 {
				t.Fatalf("TryPut/TryGet through the wrap allocates %v objects, want 0", allocs)
			}

			// Three items per microsecond through blocking Put and Get.
			env.Go("producer", func(p *Proc) {
				for i := 0; ; i++ {
					q.Put(p, i)
					if i%3 == 2 {
						p.Sleep(time.Microsecond)
					}
				}
			})
			env.Go("consumer", func(p *Proc) {
				for {
					q.Get(p)
				}
			})
			if err := env.RunFor(256 * time.Microsecond); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(1000, func() {
				if err := env.RunFor(time.Microsecond); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("Put/Get round trip allocates %v objects at steady state, want 0", allocs)
			}
		})
	}
}

// TestQueueRingSemantics walks a bounded queue through a wrap, a growth that
// unwraps the ring, a Put blocked at capacity, and a Close that still drains
// every queued item in order.
func TestQueueRingSemantics(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, 6)
	next, want := 0, 0
	put := func(k int) {
		t.Helper()
		for ; k > 0; k-- {
			if !q.TryPut(next) {
				t.Fatalf("TryPut(%d) refused at Len %d", next, q.n)
			}
			next++
		}
	}
	get := func(k int) {
		t.Helper()
		for ; k > 0; k-- {
			if v, ok := q.TryGet(); !ok || v != want {
				t.Fatalf("TryGet = %d,%v, want %d", v, ok, want)
			}
			want++
		}
	}
	checkLen := func(n int) {
		t.Helper()
		if q.n != n {
			t.Fatalf("Len = %d, want %d", q.n, n)
		}
	}
	put(3) // the ring grows 1 → 2 → 4
	get(2)
	put(3) // items 2..5 wrap around the end of the 4-slot ring
	checkLen(4)
	put(2) // growth to capacity unwraps them into a 6-slot ring
	checkLen(6)
	if q.TryPut(-1) {
		t.Fatal("TryPut succeeded at capacity")
	}
	get(3)
	put(3) // wraps again inside the grown ring
	checkLen(6)

	var putAt time.Duration
	env.Go("producer", func(p *Proc) {
		q.Put(p, next) // full: blocks until the consumer makes room
		next++
		putAt = env.Now()
		q.Close()
	})
	var drained []int
	env.Go("consumer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			drained = append(drained, v)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if putAt != time.Millisecond {
		t.Fatalf("Put at capacity completed at %v, want 1ms", putAt)
	}
	if len(drained) != next-want {
		t.Fatalf("drained %d items after Close, want %d", len(drained), next-want)
	}
	for i, v := range drained {
		if v != want+i {
			t.Fatalf("drained[%d] = %d, want %d", i, v, want+i)
		}
	}
	checkLen(0)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on a drained queue succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TryPut on a closed queue did not panic")
		}
	}()
	q.TryPut(0)
}

// FuzzQueue drives TryPut, TryGet, Len and Close in a fuzzed order
// against a plain-slice model, at capacities 0 (unbounded), 1 and 3. Each
// op byte picks the call: mostly puts and gets, so the ring fills, wraps
// and grows; Close only on one byte value in sixteen.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 4, 0, 0, 0, 0, 6, 4, 4, 4, 4, 4})
	f.Add([]byte{0, 1, 2, 3, 15, 4, 4, 6, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, capacity := range []int{0, 1, 3} {
			env := NewEnv(1)
			q := NewQueue[int](env, capacity)
			var model []int
			closed := false
			for i, op := range ops {
				switch op % 16 {
				case 0, 1, 2, 3:
					if closed {
						if !panics(func() { q.TryPut(i) }) {
							t.Fatalf("cap %d op %d: TryPut on a closed queue did not panic", capacity, i)
						}
						continue
					}
					ok := q.TryPut(i)
					if want := capacity == 0 || len(model) < capacity; ok != want {
						t.Fatalf("cap %d op %d: TryPut = %v at Len %d, want %v", capacity, i, ok, len(model), want)
					}
					if ok {
						model = append(model, i)
					}
				case 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14:
					v, ok := q.TryGet()
					if ok != (len(model) > 0) || ok && v != model[0] {
						t.Fatalf("cap %d op %d: TryGet = %d,%v, model %v", capacity, i, v, ok, model)
					}
					if ok {
						model = model[1:]
					}
				case 15:
					q.Close()
					closed = true
				}
				if q.n != len(model) {
					t.Fatalf("cap %d op %d: Len = %d, model %d", capacity, i, q.n, len(model))
				}
			}
			env.Close()
		}
	})
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestQueueNotifySharesGetFIFO: a Notify handler waits in the same FIFO as
// Procs parked in Get, so each push wakes the longest waiter, handler or
// Proc, and Close wakes every one of them in that order.
func TestQueueNotifySharesGetFIFO(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	q := NewQueue[int](env, 0)
	var log strings.Builder
	getter := func(name string, start time.Duration) func(*Proc) {
		return func(p *Proc) {
			p.Sleep(start)
			for {
				v, ok := q.Get(p)
				if !ok {
					fmt.Fprintf(&log, "%s closed at %v\n", name, env.Now())
					return
				}
				fmt.Fprintf(&log, "%s pops %d at %v\n", name, v, env.Now())
			}
		}
	}
	var serve func()
	serve = func() {
		v, ok := q.TryGet()
		switch {
		case ok:
			fmt.Fprintf(&log, "handler pops %d at %v\n", v, env.Now())
			serve()
		case q.Closed():
			fmt.Fprintf(&log, "handler closed at %v\n", env.Now())
		default:
			q.Notify(serve)
		}
	}
	// The handler waits from 0, Proc a from 0.5µs and Proc b from 1µs.
	env.Schedule(0, serve)
	env.Go("a", getter("a", 500*time.Nanosecond))
	env.Go("b", getter("b", time.Microsecond))
	env.Go("producer", func(p *Proc) {
		p.Sleep(2 * time.Microsecond)
		for i := 1; i <= 4; i++ {
			q.Put(p, i)
			p.Sleep(time.Microsecond)
		}
		q.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := "handler pops 1 at 2µs\n" +
		"a pops 2 at 3µs\n" +
		"b pops 3 at 4µs\n" +
		"handler pops 4 at 5µs\n" +
		"a closed at 6µs\n" +
		"b closed at 6µs\n" +
		"handler closed at 6µs\n"
	if got := log.String(); got != want {
		t.Fatalf("pops:\n%s\nwant:\n%s", got, want)
	}
}

// FuzzQueueNotify is the differential test of Queue.Notify and Env.Later: one
// fuzzed producer script (blocking Puts, TryPuts, sleeps and a Close) runs
// twice, once against a Proc consumer looping over Get and once against a
// handler consumer that pops with TryGet and re-arms with Notify. Each
// consumer holds every item for a service time, by Sleep or by an armed
// completion in the Proc and by Schedule or by an Env.Later completion in
// the handler. Both runs must pop the same items at the same virtual times,
// see the same TryPut results, and fire the same number of events.
func FuzzQueueNotify(f *testing.F) {
	f.Add([]byte{0, 0, 0, 9, 6, 6, 6, 14, 0, 12, 15})
	f.Add([]byte{6, 7, 8, 0, 1, 2, 3, 4, 5, 13})
	f.Add([]byte{15, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, capacity := range []int{0, 1, 3} {
			procLog, procFired := runQueueScript(ops, capacity, false)
			handlerLog, handlerFired := runQueueScript(ops, capacity, true)
			if procLog != handlerLog || procFired != handlerFired {
				t.Fatalf("cap %d: Get-loop consumer fired %d events:\n%s\nNotify consumer fired %d:\n%s",
					capacity, procFired, procLog, handlerFired, handlerLog)
			}
		}
	})
}

// runQueueScript runs one FuzzQueueNotify script and returns its log of
// producer results and consumer pops, and the events fired.
func runQueueScript(ops []byte, capacity int, handler bool) (string, uint64) {
	env := NewEnv(1)
	defer env.Close()
	q := NewQueue[int](env, capacity)
	var log strings.Builder
	service := func(v int) time.Duration { return time.Duration(v%3) * time.Microsecond }
	if handler {
		var serve, serveLater func()
		serve = func() {
			v, ok := q.TryGet()
			if !ok {
				if !q.Closed() {
					q.Notify(serve)
				}
				return
			}
			fmt.Fprintf(&log, "pop %d at %v\n", v, env.Now())
			if v%2 == 0 {
				env.Schedule(service(v), serve)
			} else {
				env.Schedule(service(v), serveLater)
			}
		}
		serveLater = env.Later(serve)
		env.Schedule(0, serve)
	} else {
		env.Go("consumer", func(p *Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				fmt.Fprintf(&log, "pop %d at %v\n", v, env.Now())
				if v%2 == 0 {
					p.Sleep(service(v))
				} else {
					env.Schedule(service(v), p.Arm())
					p.Await()
				}
			}
		})
	}
	env.Go("producer", func(p *Proc) {
		defer q.Close()
		for i, op := range ops {
			switch op % 16 {
			case 0, 1, 2, 3, 4, 5:
				q.Put(p, i)
			case 6, 7, 8:
				fmt.Fprintf(&log, "tryput %d %v at %v\n", i, q.TryPut(i), env.Now())
			case 15:
				return
			default:
				p.Sleep(time.Duration(op%16-9) * time.Microsecond)
			}
		}
	})
	if err := env.Run(); err != nil {
		fmt.Fprintf(&log, "error %v\n", err)
	}
	return log.String(), env.Fired()
}

// FuzzSignalNotify runs one script of waits and wakes on a Signal whose four
// waiters are Procs in Wait or Notify handlers, in every mix, and requires
// the wake order, the virtual times and Env.Fired() of the all-Proc run. A
// Proc's timed wait parks on the handlers' TimedWait through ArmInline.
// The pinned seeds time out, and wake at their deadline's instant from
// either side; their logs and Fired() were recorded with Procs in
// Signal.WaitTimeout, the blocking timed wait this replaced.
func FuzzSignalNotify(f *testing.F) {
	f.Add([]byte{0, 5, 0, 3, 6, 1, 7, 4, 0, 0})
	f.Add([]byte{3, 3, 3, 5, 5, 0, 1, 2})
	f.Add([]byte{})
	for _, pin := range signalPins {
		f.Add(pin.ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		procLog, procFired := runSignalScript(ops, 0)
		for _, pin := range signalPins {
			if bytes.Equal(ops, pin.ops) && (procLog != pin.log || procFired != pin.fired) {
				t.Fatalf("all-Proc run fired %d events:\n%s\nWaitTimeout run fired %d:\n%s", procFired, procLog, pin.fired, pin.log)
			}
		}
		for mask := 1; mask < 16; mask++ {
			log, fired := runSignalScript(ops, mask)
			if log != procLog || fired != procFired {
				t.Fatalf("handler mask %04b fired %d events:\n%s\nall-Proc run fired %d:\n%s",
					mask, fired, log, procFired, procLog)
			}
		}
	})
}

// signalPins are FuzzSignalNotify seeds with timed waits, pinned to the
// all-Proc log and Fired() recorded with Signal.WaitTimeout.
var signalPins = []struct {
	ops   []byte
	log   string
	fired uint64
}{
	// Every wait after the broadcast times out.
	{
		ops: []byte{131, 3, 7, 7, 7, 7, 7},
		log: "" +
			"broadcast to 4 at 0s\n" +
			"wake 0 at 0s\n" +
			"wake 1 at 0s\n" +
			"wake 2 at 0s\n" +
			"wake 3 at 0s\n" +
			"timeout 0 at 3µs\n" +
			"timeout 1 at 4µs\n" +
			"timeout 2 at 5µs\n" +
			"timeout 3 at 6µs\n" +
			"timeout 0 at 6µs\n" +
			"timeout 1 at 8µs\n" +
			"timeout 2 at 10µs\n" +
			"timeout 3 at 12µs\n",
		fired: 30,
	},
	// Waiter 0's deadline meets a Signal queued before its timer: woken.
	{
		ops: []byte{130, 3, 7, 0, 7, 0, 7, 0, 3},
		log: "" +
			"broadcast to 4 at 0s\n" +
			"wake 0 at 0s\n" +
			"wake 1 at 0s\n" +
			"wake 2 at 0s\n" +
			"wake 3 at 0s\n" +
			"signal true of 1 at 2µs\n" +
			"wake 0 at 2µs\n" +
			"timeout 1 at 3µs\n" +
			"signal true of 2 at 4µs\n" +
			"timeout 0 at 4µs\n" +
			"wake 2 at 4µs\n" +
			"timeout 3 at 5µs\n" +
			"signal true of 0 at 6µs\n" +
			"broadcast to 0 at 6µs\n" +
			"wake 1 at 6µs\n" +
			"timeout 2 at 8µs\n" +
			"timeout 3 at 10µs\n",
		fired: 31,
	},
	// Waiter 0's timer precedes a Signal at its deadline: timed out, and the
	// Signal wakes waiter 1.
	{
		ops: []byte{130, 3, 5, 6, 6, 0, 6, 0, 6, 3, 7, 3},
		log: "" +
			"broadcast to 4 at 0s\n" +
			"wake 0 at 0s\n" +
			"wake 1 at 0s\n" +
			"wake 2 at 0s\n" +
			"wake 3 at 0s\n" +
			"timeout 0 at 2µs\n" +
			"signal true of 1 at 2µs\n" +
			"wake 1 at 2µs\n" +
			"signal true of 2 at 3µs\n" +
			"wake 2 at 3µs\n" +
			"timeout 0 at 4µs\n" +
			"broadcast to 2 at 4µs\n" +
			"wake 3 at 4µs\n" +
			"wake 1 at 4µs\n" +
			"broadcast to 1 at 6µs\n" +
			"wake 2 at 6µs\n" +
			"timeout 3 at 9µs\n",
		fired: 31,
	},
	// Timeouts and wakes interleaved at 1µs deadlines.
	{
		ops: []byte{129, 3, 6, 0, 6, 0, 6, 0, 6, 3, 3, 3},
		log: "" +
			"broadcast to 4 at 0s\n" +
			"wake 0 at 0s\n" +
			"wake 1 at 0s\n" +
			"wake 2 at 0s\n" +
			"wake 3 at 0s\n" +
			"signal true of 0 at 1µs\n" +
			"wake 0 at 1µs\n" +
			"signal true of 2 at 2µs\n" +
			"timeout 0 at 2µs\n" +
			"wake 1 at 2µs\n" +
			"timeout 2 at 3µs\n" +
			"signal true of 0 at 3µs\n" +
			"wake 3 at 3µs\n" +
			"broadcast to 1 at 4µs\n" +
			"broadcast to 0 at 4µs\n" +
			"broadcast to 0 at 4µs\n" +
			"wake 1 at 4µs\n" +
			"timeout 2 at 6µs\n" +
			"timeout 3 at 7µs\n",
		fired: 32,
	},
}

// runSignalScript runs one FuzzSignalNotify script with waiter i a Notify
// handler when bit i of mask is set, else a Proc, and returns its log of
// wakes, timeouts and signal results and the events fired. Waiter i waits
// again i µs after each wake or timeout, three waits in all; an op of 128 or
// more makes the waits that start from then on time out after op%8 µs (0:
// never).
func runSignalScript(ops []byte, mask int) (string, uint64) {
	env := NewEnv(1)
	defer env.Close()
	var s Signal
	var log strings.Builder
	var timeout time.Duration
	woke := func(i int, expired bool) {
		what := "wake"
		if expired {
			what = "timeout"
		}
		fmt.Fprintf(&log, "%s %d at %v\n", what, i, env.Now())
	}
	for i := 0; i < 4; i++ {
		gap := time.Duration(i) * time.Microsecond
		var w TimedWait
		if mask&(1<<i) != 0 {
			wakes, timed := 0, false
			var wait, wake func()
			wait = func() {
				if timed = timeout > 0; timed {
					s.notifyTimeout(env, &w, timeout, wake)
				} else {
					s.Notify(env, wake)
				}
			}
			wake = func() {
				woke(i, timed && w.expired)
				if wakes++; wakes < 3 {
					env.Schedule(gap, wait)
				}
			}
			env.Schedule(0, wait)
			continue
		}
		env.Go("waiter", func(p *Proc) {
			for wakes := 0; wakes < 3; wakes++ {
				if wakes > 0 {
					p.Sleep(gap)
				}
				if timeout == 0 {
					s.Wait(p)
					woke(i, false)
					continue
				}
				s.notifyTimeout(env, &w, timeout, p.ArmInline())
				p.Await()
				woke(i, w.expired)
			}
		})
	}
	env.Go("driver", func(p *Proc) {
		for _, op := range ops {
			switch {
			case op >= 128:
				timeout = time.Duration(op%8) * time.Microsecond
			case op%8 <= 2:
				fmt.Fprintf(&log, "signal %v of %d at %v\n", s.Signal(), s.Waiters(), env.Now())
			case op%8 <= 4:
				fmt.Fprintf(&log, "broadcast to %d at %v\n", s.Waiters(), env.Now())
				s.Broadcast()
			default:
				p.Sleep(time.Duration(op%8-5) * time.Microsecond)
			}
		}
	})
	if err := env.Run(); err != nil {
		fmt.Fprintf(&log, "error %v\n", err)
	}
	return log.String(), env.Fired()
}
