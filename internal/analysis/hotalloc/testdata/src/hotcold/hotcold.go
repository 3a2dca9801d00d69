// Package hotcold holds cold boundaries for the stale-suppression audit: one
// a hot path runs into (used, silent) and one no hot path reaches (stale).
package hotcold

// Tick is the hot seed.
//
//lint:hotpath
func Tick() {
	Flush()
}

// Flush is reached from Tick, so its boundary stops propagation and counts as
// used.
//
//lint:allow hotalloc(fixture: reached cold boundary)
func Flush() {
	_ = make([]int, 64)
}

// Rebuild is called by no hot function, so its boundary stops nothing.
//
//lint:allow hotalloc(fixture: unreached cold boundary) // want `stale suppression: no hotalloc finding on this line anymore`
func Rebuild() {
	_ = make([]int, 64)
}
