package faults

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"vread/internal/sim"
)

// TestPointsSortedGolden locks the Points() list: sorted, complete, and
// exactly these names. The list feeds ParseSpec's unknown-point error and
// every registry report, so its content and order are observable output —
// adding a faultpoint means updating this golden alongside it.
func TestPointsSortedGolden(t *testing.T) {
	want := []string{
		"daemon.crash",
		"disk.read.error",
		"disk.read.slow",
		"disk.read.torn",
		"domain.partition",
		"mount.migrate",
		"net.frame.delay",
		"net.frame.drop",
		"rack.kill",
		"rdma.qp.teardown",
		"ring.badslot",
		"ring.doorbell.lost",
		"ring.doorbellstorm",
		"ring.slotheld",
		"ring.stalekey",
		"ring.stall",
		"shard.kill",
	}
	got := Points()
	if !sort.StringsAreSorted(got) {
		t.Fatalf("Points() is not sorted: %v", got)
	}
	if len(got) != len(want) {
		t.Fatalf("Points() has %d entries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Points()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestUnknownPointErrorListsSortedPoints pins the ParseSpec error shape: the
// known-point listing is the sorted Points() joined with ", ".
func TestUnknownPointErrorListsSortedPoints(t *testing.T) {
	bogus := "bogus" + ".point"
	_, err := ParseSpec(bogus)
	if err == nil {
		t.Fatal("ParseSpec accepted an unknown point")
	}
	wantList := strings.Join(Points(), ", ")
	if !strings.Contains(err.Error(), wantList) {
		t.Fatalf("error %q does not list the sorted points %q", err, wantList)
	}
}

func TestNilPlanNeverFires(t *testing.T) {
	var p *Plan
	if p.Should(DiskReadError) {
		t.Fatal("nil plan fired")
	}
	if d, ok := p.ShouldDelay(DiskReadSlow); ok || d != 0 {
		t.Fatal("nil plan fired a delay fault")
	}
	if p.Fired(DiskReadError) != 0 || p.Counts() != nil {
		t.Fatal("nil plan reported fires")
	}
}

func TestUnarmedPointNeverFiresOrDrawsRandomness(t *testing.T) {
	env := sim.NewEnv(7)
	p := NewPlan(env)
	before := env.Rand().Int63()

	env2 := sim.NewEnv(7)
	_ = before
	p2 := NewPlan(env2)
	for i := 0; i < 100; i++ {
		if p2.Should(DaemonCrash) {
			t.Fatal("unarmed point fired")
		}
	}
	// The RNG stream must be untouched by unarmed evaluations.
	if got, want := env2.Rand().Int63(), sim.NewEnv(7).Rand().Int63(); got != want {
		t.Fatalf("unarmed evaluations consumed randomness: %d != %d", got, want)
	}
	_ = p
}

func TestAfterNAndOneShot(t *testing.T) {
	env := sim.NewEnv(1)
	p := NewPlan(env)
	p.Set(Rule{Point: RDMAQPTeardown, Prob: 1, AfterN: 3, MaxFires: 1})

	var fired []int
	for i := 1; i <= 10; i++ {
		if p.Should(RDMAQPTeardown) {
			fired = append(fired, i)
		}
	}
	if len(fired) != 1 || fired[0] != 4 {
		t.Fatalf("want exactly eval #4 to fire, got %v", fired)
	}
	if p.Fired(RDMAQPTeardown) != 1 {
		t.Fatalf("Fired = %d, want 1", p.Fired(RDMAQPTeardown))
	}
	cs := p.Counts()
	if len(cs) != 1 || cs[0].Evals != 10 || cs[0].Fires != 1 {
		t.Fatalf("Counts = %+v", cs)
	}
}

func TestProbabilisticFiringIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) []int {
		env := sim.NewEnv(seed)
		p := NewPlan(env)
		p.Set(Rule{Point: NetFrameDrop, Prob: 0.3})
		var fired []int
		for i := 0; i < 200; i++ {
			if p.Should(NetFrameDrop) {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("same seed, different fire counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at fire %d: %d vs %d", i, a[i], b[i])
		}
	}
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("p=0.3 over 200 evals fired %d times — not probabilistic", len(a))
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fire schedules")
	}
}

func TestZeroProbEvaluatesButNeverFires(t *testing.T) {
	env := sim.NewEnv(1)
	p := NewPlan(env)
	p.Set(Rule{Point: DiskReadError, Prob: 0})
	for i := 0; i < 50; i++ {
		if p.Should(DiskReadError) {
			t.Fatal("p=0 fired")
		}
	}
	cs := p.Counts()
	if len(cs) != 1 || cs[0].Evals != 50 || cs[0].Fires != 0 {
		t.Fatalf("Counts = %+v, want 50 evals 0 fires", cs)
	}
}

func TestShouldDelay(t *testing.T) {
	env := sim.NewEnv(1)
	p := NewPlan(env)
	p.Set(Rule{Point: DiskReadSlow, Prob: 1, Delay: 2 * time.Millisecond})
	d, ok := p.ShouldDelay(DiskReadSlow)
	if !ok || d != 2*time.Millisecond {
		t.Fatalf("ShouldDelay = %v, %v", d, ok)
	}
}

func TestCountsFirstArmedOrder(t *testing.T) {
	env := sim.NewEnv(1)
	p := NewPlan(env)
	p.Set(Rule{Point: RingStall, Prob: 1})
	p.Set(Rule{Point: DaemonCrash, Prob: 1})
	p.Set(Rule{Point: DiskReadTorn, Prob: 1})
	p.Should(DaemonCrash)
	p.Should(DiskReadTorn)
	cs := p.Counts()
	want := []string{RingStall, DaemonCrash, DiskReadTorn}
	if len(cs) != len(want) {
		t.Fatalf("Counts len = %d", len(cs))
	}
	distinct := 0
	for i, c := range cs {
		if c.Point != want[i] {
			t.Fatalf("Counts[%d] = %s, want %s", i, c.Point, want[i])
		}
		if c.Fires > 0 {
			distinct++
		}
	}
	if p.TotalFired() != 2 || distinct != 2 {
		t.Fatalf("TotalFired=%d distinct fired=%d, want 2,2", p.TotalFired(), distinct)
	}
}

func TestSetRearmKeepsTallies(t *testing.T) {
	env := sim.NewEnv(1)
	p := NewPlan(env)
	p.Set(Rule{Point: RingDoorbellLost, Prob: 1})
	p.Should(RingDoorbellLost)
	p.Set(Rule{Point: RingDoorbellLost, Prob: 0})
	if p.Should(RingDoorbellLost) {
		t.Fatal("re-armed p=0 rule fired")
	}
	cs := p.Counts()
	if len(cs) != 1 || cs[0].Evals != 2 || cs[0].Fires != 1 {
		t.Fatalf("Counts = %+v, want evals 2 fires 1", cs)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	in := "disk.read.slow:p=0.05,delay=2ms;rdma.qp.teardown:after=6,max=1;daemon.crash"
	spec, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec) != 3 {
		t.Fatalf("len = %d", len(spec))
	}
	want := Spec{
		{Point: DiskReadSlow, Prob: 0.05, Delay: 2 * time.Millisecond},
		{Point: RDMAQPTeardown, Prob: 1, AfterN: 6, MaxFires: 1},
		{Point: DaemonCrash, Prob: 1},
	}
	for i := range want {
		if spec[i] != want[i] {
			t.Fatalf("rule %d = %+v, want %+v", i, spec[i], want[i])
		}
	}
	// Render → reparse must be stable.
	for _, in := range []string{
		in,
		"disk.read.slow:p=0",              // disarmed: must not render as the p=1 default
		"net.frame.delay:p=0,delay=1ms",   // disarmed delay rule
		"ring.stall:p=+Inf,after=0,max=0", // explicit zeroes and an infinite p
		"daemon.crash:p=1e-300",
	} {
		spec, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", spec.String(), err)
		}
		if !slices.Equal(again, spec) {
			t.Fatalf("%q: round trip through %q gives %+v, want %+v", in, spec.String(), again, spec)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		":p=1",
		"disk.read.slo",
		"bogus.point:p=0.5",
		"disk.read.slow:oops",
		"disk.read.slow:wat=1",
		"disk.read.slow:p=abc",
		"disk.read.slow:delay=xyz",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
	// Out-of-range values fail at parse time, naming the rule, instead of
	// panicking in the engine when the rule first fires.
	for _, tc := range []struct{ spec, rule string }{
		{"disk.read.slow:delay=-1ms", "disk.read.slow:delay=-1ms"},
		{"disk.read.slow:p=NaN", "disk.read.slow:p=NaN"},
		{"disk.read.slow:p=-0.5", "disk.read.slow:p=-0.5"},
		{"disk.read.slow:after=-1", "disk.read.slow:after=-1"},
		{"daemon.crash:max=-1", "daemon.crash:max=-1"},
		{"daemon.crash;net.frame.delay:p=0.5,delay=-1ns", "net.frame.delay:p=0.5,delay=-1ns"},
	} {
		_, err := ParseSpec(tc.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", tc.spec)
		} else if !strings.Contains(err.Error(), `"`+tc.rule+`"`) {
			t.Errorf("ParseSpec(%q) error %q does not name rule %q", tc.spec, err, tc.rule)
		}
	}
	spec, err := ParseSpec("  ;; ")
	if err != nil || spec != nil {
		t.Fatalf("empty spec: %v, %v", spec, err)
	}
}

func TestSpecPlanBindsRules(t *testing.T) {
	env := sim.NewEnv(9)
	spec := Spec{{Point: NetFrameDelay, Prob: 1, Delay: time.Millisecond}}
	p := spec.Plan(env)
	if d, ok := p.ShouldDelay(NetFrameDelay); !ok || d != time.Millisecond {
		t.Fatalf("ShouldDelay = %v, %v", d, ok)
	}
}
