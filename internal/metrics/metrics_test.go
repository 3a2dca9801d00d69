package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestAddAndQueryCycles(t *testing.T) {
	r := NewRegistry()
	r.AddCycles("client", TagClientApp, 100)
	r.AddCycles("client", TagClientApp, 50)
	r.AddCycles("client", TagVhostNet, 25)
	r.AddCycles("datanode", TagDiskRead, 10)

	if got := r.Cycles("client", TagClientApp); got != 150 {
		t.Fatalf("Cycles = %d, want 150", got)
	}
	if got := r.WindowEntityCycles("client"); got != 175 {
		t.Fatalf("WindowEntityCycles = %d, want 175", got)
	}
	if got := r.WindowEntityCycles("client") + r.WindowEntityCycles("datanode"); got != 185 {
		t.Fatalf("total cycles = %d, want 185", got)
	}
	if got := r.Cycles("nobody", "nothing"); got != 0 {
		t.Fatalf("missing entity Cycles = %d, want 0", got)
	}
}

// TestNegativeCyclesPanics: through either API, a negative charge panics
// with a message naming the entity and the tag it was charged to.
func TestNegativeCyclesPanics(t *testing.T) {
	r := NewRegistry()
	for name, charge := range map[string]func(){
		"AddCycles":   func() { r.AddCycles("datanode", TagDiskRead, -3) },
		"Account.Add": func() { r.Account("datanode").Add(TagDiskRead, -3) },
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			charge()
			return ""
		}()
		if !strings.Contains(msg, "datanode") || !strings.Contains(msg, TagDiskRead) {
			t.Fatalf("%s: panic %q does not name entity and tag", name, msg)
		}
	}
}

func TestEntitiesAndTagsSorted(t *testing.T) {
	r := NewRegistry()
	r.AddCycles("zeta", "b", 1)
	r.AddCycles("alpha", "c", 1)
	r.AddCycles("alpha", "a", 1)
	es := r.Entities()
	if len(es) != 2 || es[0] != "alpha" || es[1] != "zeta" {
		t.Fatalf("Entities = %v", es)
	}
	ts := r.Tags("alpha")
	if len(ts) != 2 || ts[0] != "a" || ts[1] != "c" {
		t.Fatalf("Tags = %v", ts)
	}
}

func TestWindowAndUtilization(t *testing.T) {
	r := NewRegistry()
	const freq = 1_000_000_000 // 1 GHz: 1 cycle = 1 ns
	r.AddCycles("vm", "work", 12345)
	r.MarkWindow(10 * time.Second)
	r.AddCycles("vm", "work", 500_000_000) // 0.5s of CPU at 1GHz

	if got := r.WindowCycles("vm", "work"); got != 500_000_000 {
		t.Fatalf("WindowCycles = %d", got)
	}
	u := r.Utilization("vm", "work", 11*time.Second, freq)
	if math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("Utilization = %v, want 0.5", u)
	}
	eu := r.EntityUtilization("vm", 11*time.Second, freq)
	if math.Abs(eu-0.5) > 1e-9 {
		t.Fatalf("EntityUtilization = %v, want 0.5", eu)
	}
	// Zero-length window reports 0 rather than dividing by zero.
	if got := r.Utilization("vm", "work", 10*time.Second, freq); got != 0 {
		t.Fatalf("zero-window Utilization = %v", got)
	}
}

func TestBreakdownOmitsZero(t *testing.T) {
	r := NewRegistry()
	r.MarkWindow(0)
	r.AddCycles("vm", "busy", 1000)
	r.AddCycles("vm", "idle-tag", 0)
	b := r.Breakdown("vm", time.Second, 1_000_000)
	if _, ok := b["idle-tag"]; ok {
		t.Fatal("zero-cycle tag present in breakdown")
	}
	if _, ok := b["busy"]; !ok {
		t.Fatal("busy tag missing from breakdown")
	}
	s := FormatBreakdown(b)
	if s == "" {
		t.Fatal("empty formatted breakdown")
	}
}

// TestAccountParity pins the Account ledger to the string-keyed API: a
// charge through either lands in the same cell, an account resolved but
// never charged is not an entity, and Tags stays sorted whatever order the
// tags were first charged in.
func TestAccountParity(t *testing.T) {
	r := NewRegistry()
	idle := r.Account("idle")
	a := r.Account("vm")
	if r.Account("vm") != a {
		t.Fatal("Account returned a second ledger for one entity")
	}
	for _, tag := range []string{"zeta", "alpha", "mid", "alpha", "zeta"} {
		a.Add(tag, 10)
		r.AddCycles("vm", tag, 1)
	}
	if got := r.Cycles("vm", "alpha"); got != 22 {
		t.Fatalf("Cycles(vm, alpha) = %d, want 22", got)
	}
	if got := r.Cycles("vm", "mid"); got != 11 {
		t.Fatalf("Cycles(vm, mid) = %d, want 11", got)
	}
	if got, want := r.Tags("vm"), []string{"alpha", "mid", "zeta"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Tags = %v, want %v", got, want)
	}
	if es := r.Entities(); len(es) != 1 || es[0] != "vm" {
		t.Fatalf("Entities = %v, want [vm]: an uncharged account is not an entity", es)
	}
	idle.Add("late", 0)
	if es := r.Entities(); len(es) != 2 || es[0] != "idle" {
		t.Fatalf("Entities = %v, want [idle vm] after a zero charge", es)
	}
}

// TestWindowCountsTagFirstChargedAfterMark: a tag that had no cell when the
// window was marked reports every cycle charged to it as in-window, while an
// older tag reports only the cycles since the mark.
func TestWindowCountsTagFirstChargedAfterMark(t *testing.T) {
	r := NewRegistry()
	a := r.Account("vm")
	a.Add("old", 500)
	r.MarkWindow(time.Second)
	a.Add("old", 7)
	a.Add("new", 300)
	r.AddCycles("vm", "new", 20)
	if got := r.WindowCycles("vm", "old"); got != 7 {
		t.Fatalf("WindowCycles(old) = %d, want 7", got)
	}
	if got := r.WindowCycles("vm", "new"); got != 320 {
		t.Fatalf("WindowCycles(new) = %d, want 320", got)
	}
	if got := r.WindowEntityCycles("vm"); got != 327 {
		t.Fatalf("WindowEntityCycles = %d, want 327", got)
	}
}

// TestAccountAddZeroAlloc: once an account holds its tags' cells, a charge
// allocates nothing, whether it hits the last-charged cell or scans.
func TestAccountAddZeroAlloc(t *testing.T) {
	a := NewRegistry().Account("vm")
	tags := []string{TagClientApp, TagOthers, TagVhostNet}
	for _, tag := range tags {
		a.Add(tag, 1)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, tag := range tags {
			a.Add(tag, 5)
			a.Add(tag, 5)
		}
	})
	if allocs != 0 {
		t.Fatalf("Account.Add allocates %v objects at steady state, want 0", allocs)
	}
}

func TestLatencyRecorderStats(t *testing.T) {
	l := NewLatencyRecorder()
	if l.Mean() != 0 || l.Percentile(0) != 0 || l.Max() != 0 || l.Percentile(50) != 0 {
		t.Fatal("empty recorder should report zeros")
	}
	for _, ms := range []int{5, 1, 3, 2, 4} {
		l.Record(time.Duration(ms) * time.Millisecond)
	}
	if l.Count() != 5 {
		t.Fatalf("Count = %d", l.Count())
	}
	if l.Mean() != 3*time.Millisecond {
		t.Fatalf("Mean = %v", l.Mean())
	}
	if l.Percentile(0) != time.Millisecond || l.Max() != 5*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", l.Percentile(0), l.Max())
	}
	if p := l.Percentile(50); p != 3*time.Millisecond {
		t.Fatalf("P50 = %v", p)
	}
	if p := l.Percentile(100); p != 5*time.Millisecond {
		t.Fatalf("P100 = %v", p)
	}
	// Record after sorting still works.
	l.Record(10 * time.Millisecond)
	if l.Max() != 10*time.Millisecond {
		t.Fatalf("Max after re-record = %v", l.Max())
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(100e6, time.Second); math.Abs(got-100) > 1e-9 {
		t.Fatalf("Throughput = %v, want 100", got)
	}
	if got := Throughput(1e6, 0); got != 0 {
		t.Fatalf("Throughput with zero time = %v", got)
	}
}

// Property: mean of a recorder lies between min and max, and percentiles are
// monotone in p.
func TestLatencyPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		l := NewLatencyRecorder()
		for _, v := range raw {
			l.Record(time.Duration(v) * time.Microsecond)
		}
		if l.Mean() < l.Percentile(0) || l.Mean() > l.Max() {
			return false
		}
		prev := time.Duration(0)
		for p := 1.0; p <= 100; p += 7 {
			v := l.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: window accounting equals total minus pre-window counts for any
// interleaving of charges.
func TestWindowAccountingProperty(t *testing.T) {
	f := func(pre, post []uint8) bool {
		r := NewRegistry()
		var preSum int64
		for _, v := range pre {
			r.AddCycles("e", "t", int64(v))
			preSum += int64(v)
		}
		r.MarkWindow(time.Second)
		var postSum int64
		for _, v := range post {
			r.AddCycles("e", "t", int64(v))
			postSum += int64(v)
		}
		return r.WindowCycles("e", "t") == postSum && r.Cycles("e", "t") == preSum+postSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
