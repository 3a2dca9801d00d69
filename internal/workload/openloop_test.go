package workload

import (
	"testing"
	"time"

	"vread/internal/sim"
)

// TestOpenLoopArrivalsIndependent: arrivals keep their schedule even when
// operations run long — the queueing shows up in latency, not in a stretched
// arrival timeline (the open-loop property).
func TestOpenLoopArrivalsIndependent(t *testing.T) {
	env := sim.NewEnv(1)
	var results []OpResult
	env.Go("gen", func(p *sim.Proc) {
		results = RunOpenLoop(p, env, OpenLoopConfig{QPS: 1000, Arrivals: 10}, func(op *sim.Proc, i int) string {
			op.Sleep(5 * time.Millisecond) // 5× the 1 ms arrival period
			return "ok"
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("got %d results", len(results))
	}
	period := time.Millisecond
	for i, r := range results {
		if r.Start != time.Duration(i)*period {
			t.Fatalf("arrival %d at %v, want %v — arrivals waited on completions", i, r.Start, time.Duration(i)*period)
		}
		if r.Latency != 5*time.Millisecond {
			t.Fatalf("arrival %d latency %v", i, r.Latency)
		}
		if r.Label != "ok" {
			t.Fatalf("arrival %d label %q", i, r.Label)
		}
	}
}

// TestSLOOf checks the nearest-rank percentiles on a known ladder.
func TestSLOOf(t *testing.T) {
	var results []OpResult
	for i := 1; i <= 100; i++ {
		results = append(results, OpResult{Latency: time.Duration(i) * time.Millisecond, Label: "ok"})
	}
	results = append(results, OpResult{Latency: time.Hour, Label: "typed"}) // other label: excluded
	slo := SLOOf(results, "ok")
	if slo.Count != 100 {
		t.Fatalf("count = %d", slo.Count)
	}
	if slo.P50 != 50*time.Millisecond || slo.P95 != 95*time.Millisecond ||
		slo.P99 != 99*time.Millisecond || slo.Max != 100*time.Millisecond {
		t.Fatalf("percentiles: %+v", slo)
	}
	if empty := SLOOf(results, "nope"); empty.Count != 0 || empty.Max != 0 {
		t.Fatalf("empty label SLO = %+v", empty)
	}
}
