package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"vread/internal/sim"
)

// TestNilFastPath: every method on a nil trace (and tracer) must be a safe
// no-op — the zero-overhead-by-default contract of the untraced read path.
func TestNilFastPath(t *testing.T) {
	var tr *Trace
	if idx := tr.Begin(LayerLib, "x"); idx != -1 {
		t.Fatalf("nil Begin = %d, want -1", idx)
	}
	tr.EndSpan(-1, 0)
	tr.EndSpan(3, 0)
	tr.Annotate(0, "k", "v")
	tr.Event(LayerDaemon, "e", 1)
	tr.AddCycles("client", "others", 100)
	tr.Finish(42)
	if tr.Dur() != 0 {
		t.Fatal("nil trace accumulated state")
	}

	var tc *Tracer
	if tc.Request("read") != nil {
		t.Fatal("nil tracer sampled a request")
	}
	if tc.Traces() != nil {
		t.Fatal("nil tracer has state")
	}
}

// TestNilTraceAllocFree: the nil fast path must not allocate.
func TestNilTraceAllocFree(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(100, func() {
		idx := tr.Begin(LayerRing, "req")
		tr.AddCycles("client", "others", 7)
		tr.EndSpan(idx, 0)
	})
	if allocs != 0 {
		t.Fatalf("nil trace path allocates %v per op", allocs)
	}
}

func TestTracerSampling(t *testing.T) {
	env := sim.NewEnv(1)
	tc := NewTracer(env, 3)
	sampled := 0
	for i := 0; i < 10; i++ {
		if tr := tc.Request("read"); tr != nil {
			sampled++
			if tr.ID != int64(sampled) {
				t.Fatalf("trace ID = %d, want %d", tr.ID, sampled)
			}
			tr.Finish(0)
		}
	}
	// Requests 1, 4, 7, 10 fall on the every-3rd pattern.
	if sampled != 4 {
		t.Fatalf("sampled %d of 10 at every=3, want 4", sampled)
	}
	if tc.seen != 10 {
		t.Fatalf("seen = %d", tc.seen)
	}
	if len(tc.Traces()) != 4 {
		t.Fatalf("collected %d", len(tc.Traces()))
	}
}

func TestAddCyclesMergesInOrder(t *testing.T) {
	env := sim.NewEnv(1)
	tc := NewTracer(env, 1)
	tr := tc.Request("read")
	tr.AddCycles("client", "client-application", 10)
	tr.AddCycles("dn1", "datanode-application", 20)
	tr.AddCycles("client", "client-application", 5)
	tr.AddCycles("client", "others", 1)
	tr.AddCycles("client", "zero", 0) // no-op
	want := []CycleCharge{
		{"client", "client-application", 15},
		{"dn1", "datanode-application", 20},
		{"client", "others", 1},
	}
	if len(tr.Charges) != len(want) {
		t.Fatalf("charges = %+v", tr.Charges)
	}
	for i, w := range want {
		if tr.Charges[i] != w {
			t.Fatalf("charge[%d] = %+v, want %+v", i, tr.Charges[i], w)
		}
	}
}

// buildSample produces the same little trace set from any fresh env: 4
// requests with growing span durations, events, annotations, and charges.
func buildSample(t *testing.T) []*Trace {
	t.Helper()
	env := sim.NewEnv(7)
	tc := NewTracer(env, 1)
	env.Go("gen", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			tr := tc.Request("read1")
			sp := tr.Begin(LayerLib, "vread-read")
			rsp := tr.Begin(LayerRing, "ring-drain")
			p.Sleep(time.Duration(i+1) * time.Millisecond)
			tr.EndSpan(rsp, 512)
			tr.Annotate(sp, "peer", "host2")
			tr.Event(LayerDaemon, "open", 1)
			p.Sleep(time.Millisecond)
			tr.EndSpan(sp, 1024)
			tr.AddCycles("client", "client-application", int64(1000*(i+1)))
			tr.AddCycles("vread-daemon@host1", "others", 50)
			tr.Finish(1024)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return tc.Traces()
}

func TestSpanBookkeeping(t *testing.T) {
	traces := buildSample(t)
	if len(traces) != 4 {
		t.Fatalf("got %d traces", len(traces))
	}
	tr := traces[2]
	if tr.Dur() != 4*time.Millisecond {
		t.Fatalf("request dur = %v", tr.Dur())
	}
	var lib, ring, ev *Span
	for i := range tr.Spans {
		switch tr.Spans[i].Name {
		case "vread-read":
			lib = &tr.Spans[i]
		case "ring-drain":
			ring = &tr.Spans[i]
		case "open":
			ev = &tr.Spans[i]
		}
	}
	if lib == nil || ring == nil || ev == nil {
		t.Fatalf("spans = %+v", tr.Spans)
	}
	if lib.Dur() != 4*time.Millisecond || lib.Bytes != 1024 {
		t.Fatalf("lib span = %+v", *lib)
	}
	if ring.Dur() != 3*time.Millisecond || ring.Bytes != 512 {
		t.Fatalf("ring span = %+v", *ring)
	}
	if ev.Dur() != 0 || ev.Bytes != 1 {
		t.Fatalf("event = %+v", *ev)
	}
	if len(lib.Attrs) != 1 || lib.Attrs[0] != (Attr{"peer", "host2"}) {
		t.Fatalf("attrs = %+v", lib.Attrs)
	}
}

// TestExportersDeterministic: two identical runs must serialize to
// byte-identical Chrome JSON and CSV.
func TestExportersDeterministic(t *testing.T) {
	a, b := buildSample(t), buildSample(t)
	var ja, jb, ca, cb bytes.Buffer
	if err := WriteChrome(&ja, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&jb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatal("Chrome JSON differs between identical runs")
	}
	if err := WriteSpansCSV(&ca, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpansCSV(&cb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Fatal("spans CSV differs between identical runs")
	}

	out := ja.String()
	for _, want := range []string{
		`"traceEvents":[`,
		`"name":"process_name"`,
		`"name":"read1","cat":"request","ph":"X"`,
		`"name":"vread-read","cat":"lib","ph":"X"`,
		`"name":"open","cat":"daemon","ph":"i"`,
		`"name":"cycles:client/client-application"`,
		`"peer":"host2"`,
		`"displayTimeUnit":"ms"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Chrome JSON missing %q", want)
		}
	}
	if !strings.HasPrefix(ca.String(), "trace_id,request,layer,span,start_us,end_us,bytes\n") {
		t.Errorf("spans CSV header = %q", strings.SplitN(ca.String(), "\n", 2)[0])
	}
}

func TestStagesPercentiles(t *testing.T) {
	traces := buildSample(t)
	stats := Stages(traces)
	find := func(layer Layer, name string) StageStat {
		for _, s := range stats {
			if s.Layer == layer && s.Name == name {
				return s
			}
		}
		t.Fatalf("stage %v/%s missing from %+v", layer, name, stats)
		return StageStat{}
	}
	// Ring drain durations are 1,2,3,4 ms across the four requests.
	ring := find(LayerRing, "ring-drain")
	if ring.Count != 4 || ring.Bytes != 4*512 {
		t.Fatalf("ring stage = %+v", ring)
	}
	if ring.P50 != 2*time.Millisecond {
		t.Fatalf("ring p50 = %v", ring.P50)
	}
	if ring.P99 != 4*time.Millisecond || ring.Max != 4*time.Millisecond {
		t.Fatalf("ring p99 = %v max = %v", ring.P99, ring.Max)
	}
	if ring.Mean != 2500*time.Microsecond {
		t.Fatalf("ring mean = %v", ring.Mean)
	}
	// The root request appears as a client-layer stage under its name.
	req := find(LayerClient, "read1")
	if req.Count != 4 || req.Max != 5*time.Millisecond {
		t.Fatalf("request stage = %+v", req)
	}

	var csv bytes.Buffer
	if err := WriteStagesCSV(&csv, stats); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "layer,span,count,bytes,mean_us,p50_us,p95_us,p99_us,max_us\n") {
		t.Errorf("stages CSV header = %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
}

func TestUsecFormatting(t *testing.T) {
	for _, tc := range []struct {
		ns   int64
		want string
	}{
		{0, "0.000"},
		{999, "0.999"},
		{1000, "1.000"},
		{1234567, "1234.567"},
	} {
		if got := usec(tc.ns); got != tc.want {
			t.Errorf("usec(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}

// TestAbsorb: the parallel runner's collector merge must renumber IDs into
// the destination's sequence and leave sources empty; degenerate shapes
// (nil, self, empty) are no-ops.
func TestAbsorb(t *testing.T) {
	mk := func(n int, name string) *Collector {
		col := &Collector{}
		tc := NewTracerInto(sim.NewEnv(1), 1, col)
		for i := 0; i < n; i++ {
			tc.Request(name).Finish(0)
		}
		return col
	}

	t.Run("empty-into-empty", func(t *testing.T) {
		dst, src := &Collector{}, &Collector{}
		dst.Absorb(src)
		if len(dst.Traces) != 0 || src.Traces != nil {
			t.Fatalf("dst=%d src=%v", len(dst.Traces), src.Traces)
		}
	})
	t.Run("nil-and-self", func(t *testing.T) {
		dst := mk(2, "a")
		dst.Absorb(nil)
		dst.Absorb(dst)
		if len(dst.Traces) != 2 {
			t.Fatalf("traces = %d after nil/self absorb", len(dst.Traces))
		}
		for i, tr := range dst.Traces {
			if tr.ID != int64(i+1) {
				t.Fatalf("trace %d has ID %d", i, tr.ID)
			}
		}
	})
	t.Run("single-cell", func(t *testing.T) {
		dst, src := &Collector{}, mk(3, "cell0")
		dst.Absorb(src)
		if len(dst.Traces) != 3 || len(src.Traces) != 0 {
			t.Fatalf("dst=%d src=%d", len(dst.Traces), len(src.Traces))
		}
		for i, tr := range dst.Traces {
			if tr.ID != int64(i+1) {
				t.Fatalf("trace %d renumbered to %d", i, tr.ID)
			}
		}
	})
	t.Run("multi-cell-serial-order", func(t *testing.T) {
		dst := mk(2, "cell0")
		dst.Absorb(mk(2, "cell1"))
		dst.Absorb(mk(1, "cell2"))
		if len(dst.Traces) != 5 {
			t.Fatalf("traces = %d", len(dst.Traces))
		}
		// IDs continue the destination sequence: exactly what one shared
		// serial collector would have assigned.
		for i, tr := range dst.Traces {
			if tr.ID != int64(i+1) {
				t.Fatalf("trace %d (%s) has ID %d, want %d", i, tr.Name, tr.ID, i+1)
			}
		}
		wantNames := []string{"cell0", "cell0", "cell1", "cell1", "cell2"}
		for i, tr := range dst.Traces {
			if tr.Name != wantNames[i] {
				t.Fatalf("trace %d = %s, want %s", i, tr.Name, wantNames[i])
			}
		}
	})
}
