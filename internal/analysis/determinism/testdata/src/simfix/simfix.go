// Package simfix exercises the determinism analyzer's concurrency rules: raw goroutines,
// bare channels, sync primitives, and real timers outside the engine.
package simfix

import (
	"sync"
	"sync/atomic"
	"time"
)

func Spawn(f func()) {
	go f() // want `raw go statement outside internal/sim`
}

func Channels() int {
	ch := make(chan int, 1) // want `bare channel make outside internal/sim`
	ch <- 1                 // want `bare channel send outside internal/sim`
	return <-ch
}

var mu sync.Mutex // want `sync.Mutex outside internal/sim`

// FanOut is the internal/par worker-pool pattern verbatim; the allowlist
// covers that one package, not the pattern, so outside it every piece is
// still flagged.
func FanOut(workers, n int, fn func(int)) {
	var next atomic.Int64 // want `sync/atomic.Int64 outside internal/sim`
	var wg sync.WaitGroup // want `sync.WaitGroup outside internal/sim`
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() { // want `raw go statement outside internal/sim`
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func Timer() *time.Timer {
	return time.NewTimer(time.Second) // want `time.NewTimer outside internal/sim is real concurrency`
}

// Allowed exercises the escape hatch: the directive suppresses the finding
// on the next line.
//
//lint:allow determinism(fixture exercises the escape hatch)
var registry sync.Map
