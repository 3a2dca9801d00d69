// Package allowfix exercises stale-suppression reporting: an //lint:allow
// that suppresses a live finding stays silent, one whose finding has gone
// away is itself reported, and one naming an analyzer outside the ran set is
// skipped rather than guessed about.
package allowfix

// Spawn still violates determinism; its allow is used and draws nothing.
func Spawn(f func()) {
	go f() //lint:allow determinism(fixture: the violation is the point)
}

// Fixed no longer contains the violation its allow once suppressed.
func Fixed(f func()) {
	//lint:allow determinism(fixture: stale, the go statement is gone) // want `stale suppression: no determinism finding on this line anymore`
	f()
}

// Other carries an allow for an analyzer that does not run in this fixture's
// suite; staleness cannot be judged, so it is not reported.
func Other() {
	//lint:allow hotalloc(fixture: analyzer not in the ran set)
	_ = make([]int, 4)
}
