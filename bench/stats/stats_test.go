package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// Reference values from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7},
		{[]float64{0.81, 0.79, 0.85, 0.80, 0.83, 0.78, 0.90, 0.82, 0.80, 0.84}, 0.7975, 0.815, 0.8425},
	} {
		s := Summarize(tc.xs)
		if !near(s.Q1, tc.q1) || !near(s.Median, tc.q2) || !near(s.Q3, tc.q3) || s.N != len(tc.xs) {
			t.Errorf("Summarize(%v) = %+v, want q1 %v median %v q3 %v", tc.xs, s, tc.q1, tc.q2, tc.q3)
		}
	}
	if s := Summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("Summarize(nil) = %+v", s)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted input
	}
	if s := Summarize(xs); s.TailPct != 90 || s.Tail != 90 {
		t.Errorf("100 samples: tail p%d = %v, want p90 = 90", s.TailPct, s.Tail)
	}
	if s := Summarize(xs[:20]); s.TailPct != 50 || s.Tail != 90 {
		t.Errorf("20 samples: tail p%d = %v, want p50 = 90", s.TailPct, s.Tail)
	}
	if s := Summarize(xs[:10]); s.TailPct != 0 {
		t.Errorf("10 samples: tail p%d, want none", s.TailPct)
	}
}

func TestBoundRelativeVersusFloor(t *testing.T) {
	lower := Bound{Relative: 0.10, Floor: 0.2, Lower: true}
	for _, tc := range []struct {
		b          Bound
		base, cand float64
		want       bool
	}{
		{lower, 10, 10.9, false}, // within 10 %
		{lower, 10, 11.5, true},  // beyond both
		{lower, 1, 1.15, false},  // 15 % worse, but under the 0.2 floor
		{lower, 1, 1.25, true},   // beyond both
		{lower, 10, 5, false},    // better
		{Bound{Relative: 0.10, Lower: false}, 100, 89, true},
		{Bound{Relative: 0.10, Lower: false}, 100, 120, false},
	} {
		if got := tc.b.Regressed(tc.base, tc.cand); got != tc.want {
			t.Errorf("%+v.Regressed(%v, %v) = %v, want %v", tc.b, tc.base, tc.cand, got, tc.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	b := Bound{Relative: 0.10, Lower: true}
	parent := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scaled := func(f float64) []float64 {
		var out []float64
		for _, x := range parent {
			out = append(out, x*f)
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		b      Bound
		want   string
	}{
		{"faster in every pair", scaled(0.8), b, Improved},
		{"slower beyond the bound", scaled(1.2), b, Regressed},
		{"slower within the bound", scaled(1.05), b, Unchanged},
		{"identical", parent, b, Unchanged},
		{"no bound, slower in every pair", scaled(1.2), Bound{Lower: true}, Regressed},
		{"no bound, equal medians", parent, Bound{Lower: true}, Unchanged},
	} {
		if got := Compare(parent, tc.change, tc.b); got.Verdict != tc.want {
			t.Errorf("%s: verdict %s (wins %v), want %s", tc.name, got.Verdict, got.Wins, tc.want)
		}
	}
	noisy := []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0}
	if got := Compare(noisy, noisy, b); got.Verdict != Unresolved {
		t.Errorf("noisy parent: verdict %s, want %s", got.Verdict, Unresolved)
	}
	if got := Compare(parent, scaled(0.8), b); got.Wins != 1 {
		t.Errorf("wins = %v, want 1", got.Wins)
	}
}
