// Package hotfix exercises hotalloc: seeds, propagation (local, method,
// cross-package; none through function values), every allocation class, the
// panic/zero-size blind spots, and both escape-hatch forms.
package hotfix

import (
	"fmt"

	"hothelper"
)

// T is a small struct whose address-of literal must be flagged.
type T struct{ x int }

// Boxer is a local empty interface for conversion-boxing findings.
type Boxer interface{}

// Holder has an interface-typed field for field-boxing findings.
type Holder struct {
	V Boxer
	P *T
}

func sink(v interface{}) { _ = v }

// Fire is the fixture's main hot seed.
//
//lint:hotpath
func Fire(n int, name string) {
	if n < 0 {
		panic(fmt.Sprintf("bad %d", n)) // unwinding path: no finding
	}
	_ = make([]int, n) // want `make allocates on hot path hotfix\.Fire`
	_ = new(int)       // want `new allocates on hot path hotfix\.Fire`
	xs := []int{1, 2}  // want `\[\]int literal allocates on hot path hotfix\.Fire`
	xs = hothelper.Grow(xs, 3)
	_ = xs
	_ = &T{x: 1}       // want `&hotfix\.T\{\.\.\.\} escapes to the heap on hot path hotfix\.Fire`
	_ = &struct{}{}    // zero-size: no finding
	_ = fmt.Sprint(n)  // want `fmt\.Sprint allocates on hot path hotfix\.Fire`
	s := "pfx:" + name // want `string concatenation allocates on hot path hotfix\.Fire`
	_ = s
	s = name + ":" + name // want `string concatenation allocates on hot path hotfix\.Fire`
	_ = s
	var i interface{}
	i = n // want `assignment boxes int into interface\{\} on hot path hotfix\.Fire`
	_ = i
	sink(n)      // want `argument boxes int into interface\{\} on hot path hotfix\.Fire`
	_ = Boxer(n) // want `conversion boxes int into hotfix\.Boxer on hot path hotfix\.Fire`

	_ = Holder{V: n}            // want `field V boxes int into hotfix\.Boxer on hot path hotfix\.Fire`
	_ = Holder{n, nil}          // want `field V boxes int into hotfix\.Boxer on hot path hotfix\.Fire`
	_ = Holder{V: &T{}, P: nil} // want `&hotfix\.T\{\.\.\.\} escapes to the heap on hot path hotfix\.Fire`
	y := n
	capture := func() int { return y } // want `closure capturing y allocates on hot path hotfix\.Fire`
	_ = capture
	static := func() int { return 42 } // non-capturing: no finding
	_ = static
	_ = make([]int, 4) //lint:allow hotalloc(cold-start warmup buffer)
	ColdSink()
}

// Result boxes its return value.
//
//lint:hotpath
func Result(v int) interface{} {
	return v // want `return boxes int into interface\{\} on hot path hotfix\.Result`
}

// Ring checks propagation into methods.
type Ring struct{ xs []int }

// Push is the ring's hot entry.
//
//lint:hotpath
func (r *Ring) Push(v int) {
	r.xs = append(r.xs, v) // want `append may grow its backing array on hot path \(hotfix\.Ring\)\.Push`
}

// Dispatch calls through a function value, which has no call-graph edge:
// process is hot because it carries its own marker, not because Dispatch
// might call it.
//
//lint:hotpath
func Dispatch(fn func(int)) {
	fn(1)
}

// process is a callback Dispatch runs.
//
//lint:hotpath
func process(v int) {
	_ = make([]int, v) // want `make allocates on hot path hotfix\.process`
}

// ColdSink is reachable from Fire but declared a cold boundary: nothing in
// it is reported and propagation stops here.
//
//lint:allow hotalloc(macro-scale helper, not part of the per-event loop)
func ColdSink() {
	_ = make([]int, 1024) // boundary: no finding
}

// Unreferenced is not reachable from any seed: no findings.
func Unreferenced() {
	_ = make([]int, 8)
	_ = fmt.Sprint("cold")
}
