package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestAwaitAfterCompletion: a completion that runs before Await (here
// synchronously, inside the call that started the operation) lets Await
// return without parking, so no event fires and the clock does not move.
func TestAwaitAfterCompletion(t *testing.T) {
	env := NewEnv(1)
	returned := false
	env.Go("worker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Arm()()
		fired, now := env.Fired(), env.Now()
		p.Await()
		if env.Fired() != fired || env.Now() != now {
			t.Errorf("Await fired %d events and moved the clock %v, want neither",
				env.Fired()-fired, env.Now()-now)
		}
		returned = true
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !returned || env.Live() != 0 {
		t.Fatalf("Await returned = %v, Live() = %d; want true, 0", returned, env.Live())
	}
}

// TestAwaitMatchesSignalIdiom: a completion from a later event resumes the
// Proc at that virtual time, after the events already queued for the same
// instant, and fires exactly the events of the Signal-plus-flag wait that
// Arm/Await replaces, which the test writes inline as the reference.
func TestAwaitMatchesSignalIdiom(t *testing.T) {
	run := func(arm bool) ([]string, uint64) {
		env := NewEnv(1)
		var log []string
		env.Go("waiter", func(p *Proc) {
			var complete, wait func()
			if arm {
				complete, wait = p.Arm(), p.Await
			} else {
				var sig Signal
				done := false
				complete = func() { done = true; sig.Broadcast() }
				wait = func() {
					for !done {
						sig.Wait(p)
					}
				}
			}
			env.Schedule(time.Millisecond, func() {
				log = append(log, "complete")
				complete()
				env.Schedule(0, func() { log = append(log, "queued after the completion") })
			})
			env.Schedule(time.Millisecond, func() { log = append(log, "queued before the completion") })
			wait()
			log = append(log, fmt.Sprintf("resumed at %v", env.Now()))
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return log, env.Fired()
	}
	want := []string{"complete", "queued before the completion", "resumed at 1ms", "queued after the completion"}
	refLog, refFired := run(false)
	if !reflect.DeepEqual(refLog, want) {
		t.Fatalf("reference idiom order = %q, want %q", refLog, want)
	}
	gotLog, gotFired := run(true)
	if !reflect.DeepEqual(gotLog, refLog) || gotFired != refFired {
		t.Fatalf("Arm/Await: order %q, %d events; Signal idiom: order %q, %d events",
			gotLog, gotFired, refLog, refFired)
	}
}

// TestArmMisuse: a second outstanding Arm, a second run of one completion
// (before or after Await returned) and an Await with nothing armed are bugs
// in the caller; each panics with a message naming the Proc.
func TestArmMisuse(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		body       func(p *Proc)
	}{
		{"arm twice", "already outstanding", func(p *Proc) { p.Arm(); p.Arm() }},
		{"complete twice before await", "ran twice", func(p *Proc) { c := p.Arm(); c(); c() }},
		{"complete again after await", "ran twice", func(p *Proc) {
			c := p.Arm()
			p.Env().Schedule(time.Millisecond, c)
			p.Await()
			c()
		}},
		{"await unarmed", "without an armed completion", func(p *Proc) { p.Await() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv(1)
			defer env.Close()
			env.Go("worker", tc.body)
			err := env.Run()
			var pe *procPanic
			if !errors.As(err, &pe) {
				t.Fatalf("Run() = %v, want a process panic", err)
			}
			if msg := fmt.Sprint(pe.value); !strings.Contains(msg, `"worker"`) || !strings.Contains(msg, tc.want) {
				t.Fatalf("panic %q, want one naming process \"worker\" and saying %q", msg, tc.want)
			}
		})
	}
}

// TestCloseWhileAwaiting: Close unwinds a Proc parked in Await through its
// defers, and the completion running afterwards schedules nothing.
func TestCloseWhileAwaiting(t *testing.T) {
	env := NewEnv(1)
	var complete func()
	deferred := false
	env.Go("worker", func(p *Proc) {
		defer func() { deferred = true }()
		complete = p.Arm()
		p.Await() // the operation never completes before Close
	})
	if err := env.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	env.Close()
	if !deferred || env.Live() != 0 {
		t.Fatalf("after Close: defers ran = %v, Live() = %d; want true, 0", deferred, env.Live())
	}
	complete()
	if env.Pending() != 0 {
		t.Fatalf("a completion after Close scheduled %d events", env.Pending())
	}
}

// TestArmAwaitZeroAlloc asserts that Arm/Await round trips allocate nothing
// at steady state, both when the completion runs before Await and when it
// wakes the parked Proc from a later event: the callback is bound once per
// Proc and the wake-up is the Proc's prebound wake.
func TestArmAwaitZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	env.Go("worker", func(p *Proc) {
		for {
			p.Arm()()
			p.Await()
			env.Schedule(time.Microsecond, p.Arm())
			p.Await()
		}
	})
	// Warm up: event free list and heap capacity.
	if err := env.RunFor(256 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := env.RunFor(time.Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Arm/Await round trip allocates %v objects at steady state, want 0", allocs)
	}
}
