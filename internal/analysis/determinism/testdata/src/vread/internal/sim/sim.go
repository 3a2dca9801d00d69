// Package sim stands in for the engine package: both allow sets exempt it
// wholesale — it owns the virtual clock and the seeded random source, and
// implements the Proc handoff protocol on real goroutines and channels.
package sim

import (
	"sync"
	"time"
)

var mu sync.Mutex

// Wall would be a violation anywhere else; here it draws no findings.
func Wall() time.Time {
	return time.Now()
}

// Go would be a violation anywhere else; here it draws no findings.
func Go(f func()) {
	done := make(chan struct{})
	go func() {
		f()
		done <- struct{}{}
	}()
	<-done
}
