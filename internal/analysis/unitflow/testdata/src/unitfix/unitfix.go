// Package unitfix exercises the unit discipline: cycles must reach
// time.Duration only through declared converters, and byte counts must not
// mix into cycle arithmetic except via the bytes × cyclesPerKB idiom.
package unitfix

import "time"

type cfg struct {
	KickCycles      int64
	CopyCyclesPerKB int64
	SegmentBytes    int64
}

// DurFor is the declared converter: its body is the one place the raw
// conversion may live.
//
//lint:converter unitflow(fixture's blessed cycles→time crossing)
func DurFor(cycles int64) time.Duration {
	return time.Duration(cycles)
}

// charge declares a cycles parameter; byte counts must not feed it.
func charge(cycles int64) {}

// setupCycles labels its result by name.
func setupCycles() int64 { return 100 }

func bad(c cfg) {
	_ = time.Duration(c.KickCycles)    // want `cycle count converted directly to time\.Duration`
	_ = time.Duration(setupCycles())   // want `cycle count converted directly to time\.Duration`
	_ = c.KickCycles + c.SegmentBytes  // want `byte count mixed into cycle arithmetic`
	_ = c.SegmentBytes * c.KickCycles  // want `byte count multiplied into cycle arithmetic`
	charge(c.SegmentBytes)             // want `byte count passed as the cycles argument of charge`
	d := c.KickCycles - c.SegmentBytes // want `byte count mixed into cycle arithmetic`
	_ = d
}

// allowed carries the same violation as bad, suppressed through the escape
// hatch: no want, so the harness proves the allow is honored.
func allowed(c cfg) {
	_ = time.Duration(c.KickCycles) //lint:allow unitflow(fixture proves the escape hatch works)
}

func good(c cfg) {
	_ = DurFor(c.KickCycles)
	// The blessed idiom: bytes × rate (/1024) yields cycles.
	copyCycles := c.SegmentBytes * c.CopyCyclesPerKB / 1024
	charge(copyCycles)
	charge(c.KickCycles + c.SegmentBytes*c.CopyCyclesPerKB/1024)
	_ = DurFor(c.SegmentBytes * c.CopyCyclesPerKB / 1024)
	// Dividing like units cancels; comparisons carry no units.
	if c.KickCycles > 0 && c.SegmentBytes > 0 {
		_ = c.SegmentBytes / 1024
	}
}

// kickOf's own source, a cycles field, reaches its result, so its summary
// labels every call's result cycles.
func kickOf(c cfg) int64 { return c.KickCycles }

// compound assigns through op=: n *= rate is n = n * rate, the blessed
// bytes × cyclesPerKB idiom, so n carries cycles afterwards.
func compound(c cfg) {
	_ = time.Duration(kickOf(c)) // want `cycle count converted directly to time\.Duration`
	n := c.SegmentBytes
	n *= c.CopyCyclesPerKB
	_ = time.Duration(n) // want `cycle count converted directly to time\.Duration`
}

// compoundMix mixes units through op=: d += bytes is d = d + bytes, the same
// defect bad's d := cycles - bytes is.
func compoundMix(c cfg) {
	d := c.KickCycles
	d += c.SegmentBytes // want `byte count mixed into cycle arithmetic`
	_ = d
}
