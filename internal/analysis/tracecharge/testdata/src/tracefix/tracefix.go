// Package tracefix exercises the trace-propagation analyzer against the
// real trace.Trace type: span leaks on return paths, discarded Begin
// results, dropped trace-context parameters, and the ownership-transfer
// idioms (defer, return, async completion callback).
package tracefix

import "vread/internal/trace"

func Leak(tr *trace.Trace, fail bool) {
	sp := tr.Begin(trace.LayerLib, "op")
	if fail {
		return // want `span "sp" \(opened at line \d+\) is not ended on this return path`
	}
	tr.EndSpan(sp, 0)
}

func LeakEnd(tr *trace.Trace) {
	sp := tr.Begin(trace.LayerLib, "op") // want `span "sp" is not ended before LeakEnd falls off the end`
	tr.Annotate(sp, "k", "v")
}

func Discard(tr *trace.Trace) {
	tr.Begin(trace.LayerLib, "op") // want `result of Begin is discarded`
}

func Blank(tr *trace.Trace) {
	_ = tr.Begin(trace.LayerLib, "op") // want `span index from Begin is discarded`
}

// Dropped accepts a trace context and never touches it.
func Dropped(tr *trace.Trace) { // want `exported Dropped accepts trace context "tr" but never uses it`
	_ = 0
}

// Deferred ends its span through a defer: fine on every path.
func Deferred(tr *trace.Trace, fail bool) int {
	sp := tr.Begin(trace.LayerLib, "op")
	defer tr.EndSpan(sp, 0)
	if fail {
		return 0
	}
	return 1
}

// Transfer hands the span index to the caller, which owns ending it.
func Transfer(tr *trace.Trace) int {
	return tr.Begin(trace.LayerLib, "op")
}

// Async ends the span inside a completion callback — the closure takes
// ownership of it (the Schedule/PostT idiom).
func Async(tr *trace.Trace, submit func(func())) {
	sp := tr.Begin(trace.LayerLib, "op")
	submit(func() {
		tr.EndSpan(sp, 0)
	})
}

// Annotated exercises the escape hatch: the collector ends this span, so
// leaving it open here is deliberate.
func Annotated(tr *trace.Trace, fail bool) {
	sp := tr.Begin(trace.LayerLib, "op")
	if fail {
		return //lint:allow tracecharge(span ownership documented: the collector ends it)
	}
	tr.EndSpan(sp, 0)
}

// SwitchEnds ends the span on every arm of a switch with a default: no
// exit holds it.
func SwitchEnds(tr *trace.Trace, k int) {
	sp := tr.Begin(trace.LayerLib, "op")
	switch k {
	case 0:
		tr.EndSpan(sp, 0)
	default:
		tr.EndSpan(sp, 1)
	}
}

// SwitchLeak has no default, so a k matching no case skips the EndSpan.
func SwitchLeak(tr *trace.Trace, k int) {
	sp := tr.Begin(trace.LayerLib, "op") // want `span "sp" is not ended before SwitchLeak falls off the end`
	switch k {
	case 0:
		tr.EndSpan(sp, 0)
	}
}

// TypeSwitchReturn returns from inside a type-switch arm with the span open.
func TypeSwitchReturn(tr *trace.Trace, v interface{}) int {
	sp := tr.Begin(trace.LayerLib, "op")
	switch v.(type) {
	case int:
		return 1 // want `span "sp" \(opened at line \d+\) is not ended on this return path`
	}
	tr.EndSpan(sp, 0)
	return 0
}

// SelectReturn returns from inside a select arm with the span open.
func SelectReturn(tr *trace.Trace, ch chan int) {
	sp := tr.Begin(trace.LayerLib, "op")
	select {
	case <-ch:
		return // want `span "sp" \(opened at line \d+\) is not ended on this return path`
	default:
	}
	tr.EndSpan(sp, 0)
}

// LoopForever leaves `for {}` only through its return, so there is no
// fall-off exit to hold the span.
func LoopForever(tr *trace.Trace, next func() bool) {
	sp := tr.Begin(trace.LayerLib, "op")
	for {
		if next() {
			tr.EndSpan(sp, 0)
			return
		}
	}
}

// LoopBreak leaves `for {}` through a break with the span open.
func LoopBreak(tr *trace.Trace, next func() bool) {
	sp := tr.Begin(trace.LayerLib, "op") // want `span "sp" is not ended before LoopBreak falls off the end`
	for {
		if next() {
			break
		}
		tr.Annotate(sp, "k", "v")
	}
}
