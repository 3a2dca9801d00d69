package sim

import (
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
				t.Fatalf("TryPut(%d) refused at Len %d", next, q.Len())
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
		if q.Len() != n {
			t.Fatalf("Len = %d, want %d", q.Len(), n)
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
				if q.Len() != len(model) {
					t.Fatalf("cap %d op %d: Len = %d, model %d", capacity, i, q.Len(), len(model))
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

// TestQueueOneConsumerKind pins the rule that a queue's consumers are Procs
// in Get or one Notify handler, never both: arming a handler while a Proc
// is parked in Get panics.
func TestQueueOneConsumerKind(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	q := NewQueue[int](env, 0)
	env.Go("getter", func(p *Proc) { q.Get(p) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !panics(func() { q.Notify(func() {}) }) {
		t.Fatal("Notify with a Proc parked in Get did not panic")
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
