// Package stats summarises repeated benchmark measurements and decides
// whether one set of runs is better, worse or indistinguishable from
// another.
//
// Quartiles follow Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), so spreads computed here and by scripts agree.
package stats

import (
	"math"
	"sort"
)

// Summary describes a sample of one metric.
type Summary struct {
	N              int
	Median, Q1, Q3 float64
	// TailPct is the highest whole percentile with at least ten samples
	// beyond it, and Tail its nearest-rank value; TailPct is 0 when the
	// sample has fewer than 11 values.
	TailPct int
	Tail    float64
}

// IQR is the distance between the quartiles.
func (s Summary) IQR() float64 { return s.Q3 - s.Q1 }

// Summarize computes the summary of xs, which it does not modify.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Q1, s.Median, s.Q3 = quartiles(sorted)
	for p := 99; p >= 1; p-- {
		rank := int(math.Ceil(float64(p) * float64(len(sorted)) / 100))
		if len(sorted)-rank >= 10 {
			s.TailPct, s.Tail = p, sorted[rank-1]
			break
		}
	}
	return s
}

// Median is Summarize(xs).Median.
func Median(xs []float64) float64 { return Summarize(xs).Median }

// quartiles of an ascending sample by the exclusive method: the i-th cut
// point sits at position i*(n+1)/4 (1-based), interpolated linearly and
// clamped to the sample.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Bound is how far a metric may worsen before it counts as a regression:
// by more than Relative × the base value and by more than Floor, in the
// metric's unit. Lower says which direction is better.
type Bound struct {
	Relative, Floor float64
	Lower           bool
}

// worse returns how much worse cand is than base, in the metric's unit
// (negative when cand is better).
func (b Bound) worse(base, cand float64) float64 {
	if b.Lower {
		return cand - base
	}
	return base - cand
}

// Regressed reports whether cand is worse than base by more than both the
// relative bound and the absolute floor.
func (b Bound) Regressed(base, cand float64) bool {
	d := b.worse(base, cand)
	return d > b.Relative*math.Abs(base) && d > b.Floor
}

// Verdicts of Compare.
const (
	Improved   = "improved"
	Regressed  = "regressed"
	Unresolved = "unresolved"
	Unchanged  = "unchanged"
)

// Comparison is Compare's result for one metric on one workload.
type Comparison struct {
	Parent, Change Summary
	// Wins is the share of pairs in which the change reads better; ties
	// count for neither side.
	Wins    float64
	Verdict string
}

// Compare judges runs of a change against runs of its parent, paired by
// index. The change improved when it wins at least 9 of 10 pairs and its
// median beats the parent's by more than the parent's IQR. With a bound
// (Relative > 0), it regressed when its median is worse by more than the
// bound, and the result is unresolved when the parent's own IQR exceeds the
// bound, unless every change run beats every parent run. Without a bound,
// it regressed by the mirror of the improvement rule, and it is unchanged
// only when the medians are equal.
func Compare(parent, change []float64, b Bound) Comparison {
	c := Comparison{Parent: Summarize(parent), Change: Summarize(change)}
	n := min(len(parent), len(change))
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch d := b.worse(parent[i], change[i]); {
		case d < 0:
			wins++
		case d > 0:
			losses++
		}
	}
	if n > 0 {
		c.Wins = float64(wins) / float64(n)
	}
	gap := b.worse(c.Parent.Median, c.Change.Median)
	iqr := c.Parent.IQR()
	switch {
	case gap < 0 && 10*wins >= 9*n && -gap > iqr:
		c.Verdict = Improved
	case b.Relative > 0 && b.Regressed(c.Parent.Median, c.Change.Median):
		c.Verdict = Regressed
	case b.Relative == 0 && gap > 0 && 10*losses >= 9*n && gap > iqr:
		c.Verdict = Regressed
	case b.Relative > 0 && iqr > b.Relative*math.Abs(c.Parent.Median) && iqr > b.Floor && !allBetter(parent, change, b):
		c.Verdict = Unresolved
	case b.Relative == 0 && gap != 0:
		c.Verdict = Unresolved
	default:
		c.Verdict = Unchanged
	}
	return c
}

// allBetter reports whether every change run beats every parent run.
func allBetter(parent, change []float64, b Bound) bool {
	for _, p := range parent {
		for _, c := range change {
			if b.worse(p, c) >= 0 {
				return false
			}
		}
	}
	return len(parent) > 0 && len(change) > 0
}
