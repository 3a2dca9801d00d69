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

// poolStorm is a fixed open-loop storm whose operations run for different
// lengths, so the number in flight rises and falls: 40 arrivals at 1000 QPS,
// operation i sleeping 0.7–3.5 ms, every third one in two sleeps.
type poolStorm struct {
	fired, resumes uint64
	live           int // Env.Live() just after RunOpenLoop returns
	procs          int // distinct Procs the operations ran on
	peak           int // most operations in flight at once
	results        []OpResult
}

func runPoolStorm(t *testing.T) poolStorm {
	t.Helper()
	env := sim.NewEnv(1)
	var s poolStorm
	seen := map[*sim.Proc]bool{}
	inFlight := 0
	env.Go("gen", func(p *sim.Proc) {
		s.results = RunOpenLoop(p, env, OpenLoopConfig{QPS: 1000, Arrivals: 40}, func(op *sim.Proc, i int) string {
			seen[op] = true
			inFlight++
			s.peak = max(s.peak, inFlight)
			d := time.Duration(i*7%5+1) * 700 * time.Microsecond
			if i%3 == 0 {
				op.Sleep(d / 2)
				d -= d / 2
			}
			op.Sleep(d)
			inFlight--
			return "ok"
		})
		s.live = env.Live()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	s.fired, s.resumes, s.procs = env.Fired(), env.Resumes(), len(seen)
	return s
}

// TestOpenLoopPool pins the storm's engine counts: arrivals start on one
// zero-delay event each, so the events fired and Proc resumes are those of a
// generator that starts a fresh Proc per arrival (measured on that
// generator: 137 events, 137 resumes, and only the generator live on
// return). Operations run on reused Procs, never more than were in flight
// at once.
func TestOpenLoopPool(t *testing.T) {
	s := runPoolStorm(t)
	if s.fired != 137 || s.resumes != 137 {
		t.Errorf("storm fired %d events and %d resumes, want 137 and 137", s.fired, s.resumes)
	}
	if s.live != 1 {
		t.Errorf("%d Procs live after RunOpenLoop returned, want 1 (the generator)", s.live)
	}
	if s.procs > s.peak {
		t.Errorf("operations ran on %d Procs, but at most %d were in flight", s.procs, s.peak)
	}
	for i, r := range s.results {
		d := time.Duration(i*7%5+1) * 700 * time.Microsecond
		if r.Start != time.Duration(i)*time.Millisecond || r.Latency != d || r.Label != "ok" {
			t.Fatalf("arrival %d: %+v, want start %v latency %v", i, r, time.Duration(i)*time.Millisecond, d)
		}
	}
}
