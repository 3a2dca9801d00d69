// Package lockfix exercises lockorder's leak check against the real
// sim.Mutex type: leaks on early returns, leaks at fall-off-the-end, and the
// sanctioned defer and explicit-unlock shapes.
package lockfix

import (
	"errors"

	"vread/internal/sim"
)

var errFail = errors.New("fail")

func Leak(p *sim.Proc, mu *sim.Mutex, fail bool) {
	mu.Lock(p)
	if fail {
		return // want `ring spinlock mu.Lock \(acquired at line \d+\) is not released on this return path`
	}
	mu.Unlock()
}

func LeakEnd(p *sim.Proc, mu *sim.Mutex) {
	mu.Lock(p) // want `ring spinlock mu.Lock \(acquired at line \d+\) is not released before falling off the end of LeakEnd`
}

func Deferred(p *sim.Proc, mu *sim.Mutex, fail bool) error {
	mu.Lock(p)
	defer mu.Unlock()
	if fail {
		return errFail
	}
	return nil
}

func Explicit(p *sim.Proc, mu *sim.Mutex, fail bool) error {
	mu.Lock(p)
	if fail {
		mu.Unlock()
		return errFail
	}
	mu.Unlock()
	return nil
}

// DeferredClosure releases through a deferred closure; its Unlock counts.
func DeferredClosure(p *sim.Proc, mu *sim.Mutex) {
	mu.Lock(p)
	defer func() {
		mu.Unlock()
	}()
}

// Handoff exercises the escape hatch: the daemon releases this lock, so the
// leak on this return path is deliberate.
func Handoff(p *sim.Proc, mu *sim.Mutex, fail bool) {
	mu.Lock(p)
	if fail {
		return //lint:allow lockorder(lock handed to the daemon, which releases it)
	}
	mu.Unlock()
}
