package experiments

import (
	"bytes"
	"testing"

	"vread/internal/core"
	"vread/internal/metrics"
	"vread/internal/trace"
)

// TestBreakdownSpanRegistryAgreement checks that request traces are
// complete: with every request traced, the per-request cycle charges of the
// Figure 6 and Figure 8 reads sum, per (entity, tag), to exactly the
// metrics.Registry window the bars are built from. The one exception is
// "others", which also holds scheduler-injected cycles (context switches,
// cache refills) that belong to no request, so there the traces may only
// fall short of the registry.
func TestBreakdownSpanRegistryAgreement(t *testing.T) {
	cases := []struct {
		figure   string
		scenario Scenario
		tr       core.Transport
	}{
		{"fig6", Colocated, core.TransportRDMA},
		{"fig8", Remote, core.TransportTCP},
	}
	for _, c := range cases {
		for _, vread := range []bool{true, false} {
			checkTraceCompleteness(t, c.figure, c.scenario, c.tr, vread)
		}
	}
}

func checkTraceCompleteness(t *testing.T, figure string, scenario Scenario, tr core.Transport, vread bool) {
	t.Helper()
	name := figure + " " + sysName(vread)
	o := tiny()
	o.Traces = &trace.Collector{}
	o.TraceEvery = 1
	tb, err := breakdownRead(o, figure, scenario, tr, vread)
	if err != nil {
		t.Fatal(err)
	}
	tb.Close()
	if len(o.Traces.Traces) == 0 {
		t.Fatalf("%s: no traces collected", name)
	}
	type key struct{ entity, tag string }
	span := map[key]int64{}
	for _, req := range o.Traces.Traces {
		for _, c := range req.Charges {
			span[key{c.Entity, c.Tag}] += c.Cycles
		}
	}
	reg := map[key]int64{}
	for _, e := range tb.C.Reg.Entities() {
		for _, tag := range tb.C.Reg.Tags(e) {
			if n := tb.C.Reg.WindowCycles(e, tag); n != 0 {
				reg[key{e, tag}] = n
			}
		}
	}
	for k := range span {
		if _, ok := reg[k]; !ok {
			reg[k] = 0
		}
	}
	var sched int64
	for k, r := range reg {
		s := span[k]
		switch {
		case k.tag == metrics.TagOthers && s > r:
			t.Errorf("%s %s/%s: traces %d cycles exceed the registry window's %d", name, k.entity, k.tag, s, r)
		case k.tag == metrics.TagOthers:
			sched += r - s
		case s != r:
			t.Errorf("%s %s/%s: traces %d cycles, registry window %d", name, k.entity, k.tag, s, r)
		}
	}
	t.Logf("%s: %d traces, %d (entity, tag) cells, %d unattributed others cycles", name, len(o.Traces.Traces), len(reg), sched)
}

// TestBreakdownTraceDeterminism: two same-seed breakdown runs must produce
// byte-identical Chrome trace JSON — the -trace flag's contract.
func TestBreakdownTraceDeterminism(t *testing.T) {
	export := func() []byte {
		opt := tiny()
		opt.Traces = &trace.Collector{}
		if _, err := runBreakdown(opt, "fig6", Colocated, core.TransportRDMA); err != nil {
			t.Fatal(err)
		}
		if len(opt.Traces.Traces) == 0 {
			t.Fatal("no traces collected")
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, opt.Traces.Traces); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := export()
	b := export()
	if !bytes.Equal(a, b) {
		t.Fatal("Chrome trace JSON differs between identical seeded runs")
	}
	t.Logf("deterministic trace export: %d bytes", len(a))
}

// TestDelayStages exercises the per-stage percentile reducer (the facade's
// TraceStages) end to end on a traced co-located vRead read.
func TestDelayStages(t *testing.T) {
	o := tiny()
	o.Traces = &trace.Collector{}
	o.TraceEvery = 1
	tb, err := breakdownRead(o, "fig6", Colocated, core.TransportRDMA, true)
	if err != nil {
		t.Fatal(err)
	}
	tb.Close()
	stats := trace.Stages(o.Traces.Traces)
	if len(stats) == 0 {
		t.Fatal("no stages")
	}
	found := map[string]bool{}
	for _, s := range stats {
		t.Logf("stage %-7s %-16s n=%-5d p50=%-12v p95=%-12v p99=%v", s.Layer, s.Name, s.Count, s.P50, s.P95, s.P99)
		found[s.Layer.String()+"/"+s.Name] = true
		if s.Count <= 0 {
			t.Errorf("stage %s/%s has no samples", s.Layer, s.Name)
		}
		if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
			t.Errorf("stage %s/%s percentiles not monotonic: %+v", s.Layer, s.Name, s)
		}
	}
	// The vRead read path's stages must be present.
	for _, want := range []string{"client/read1", "lib/vread-read", "ring/ring-drain", "daemon/read-local", "hostfs/host-read"} {
		if !found[want] {
			t.Errorf("stage %s missing (got %v)", want, found)
		}
	}
}
