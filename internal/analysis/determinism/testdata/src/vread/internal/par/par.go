// Package par stands in for the fan-out shim: like the engine it may use
// real concurrency, because it runs independent experiment cells on real OS
// threads — goroutines, WaitGroups and atomics here draw no findings. The
// clock allow set is the engine's alone, so a wall-clock read here is still
// flagged.
package par

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stamp reads the wall clock, which only the engine may do.
func Stamp() time.Time {
	return time.Now() // want `time.Now consults the wall clock`
}

// Each would trip every rule the analyzer has if it lived anywhere else.
func Each(workers, n int, fn func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
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
