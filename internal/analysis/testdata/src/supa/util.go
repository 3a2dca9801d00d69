// Package supa holds one suppressed violation. Its file shares the basename
// util.go with supb/util.go, and the violation sits on the same line number
// there: if suppressions were keyed by basename instead of full path, the
// allow below would silently mask supb's finding.
package supa

func Spawn(f func()) {
	go f() //lint:allow determinism(fixture: proves suppression keys on full path)
}
