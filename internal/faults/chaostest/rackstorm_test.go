package chaostest

import (
	"testing"

	"vread/internal/faults"
)

// rackPlans arm the datacenter-scale faultpoints: whole-rack loss, namespace
// shard loss, and inter-domain partitions, alone and composed with the
// classic fault surface.
var rackPlans = []struct {
	name string
	spec string
}{
	{"rack-kill", "rack.kill:after=10,max=1"},
	{"shard-kill", "shard.kill:p=0.05"},
	{"domain-partition", "domain.partition:p=0.08,delay=2ms"},
	{"full-storm", "rack.kill:after=8,max=1;shard.kill:p=0.04;domain.partition:p=0.05,delay=1ms;net.frame.drop:p=0.02"},
}

var rackSeeds = []int64{1, 7}

// TestRackStorm kills a full rack (and worse) mid-storm and requires the
// chaos invariants to hold: every read returns correct bytes or a typed
// error after replica failover, every span closes, and the run drains.
func TestRackStorm(t *testing.T) {
	for _, plan := range rackPlans {
		spec, err := faults.ParseSpec(plan.spec)
		if err != nil {
			t.Fatalf("plan %s: %v", plan.name, err)
		}
		for _, seed := range rackSeeds {
			res := RunRack(RackOptions{Seed: seed, Spec: spec})
			checkRun(t, failureRecord{Harness: "RunRack", Seed: seed, Plan: plan.name, Spec: plan.spec}, res, "")
			if res.OKs == 0 {
				t.Errorf("plan %s seed %d: no read survived (%d typed errors, %d open misses)",
					plan.name, seed, res.TypedErrors, res.OpenMisses)
			}
		}
	}
}

// TestRackStormFires checks the rack kill actually takes effect: the plan
// fires, and the storm still completes with reads surviving via the replicas
// outside the victim rack.
func TestRackStormFires(t *testing.T) {
	spec, err := faults.ParseSpec("rack.kill:after=5,max=1")
	if err != nil {
		t.Fatal(err)
	}
	res := RunRack(RackOptions{Seed: 3, Spec: spec, Reads: 30})
	checkRun(t, failureRecord{Harness: "RunRack", Seed: 3, Plan: "fires", Spec: "rack.kill:after=5,max=1"}, res, "")
	fired := false
	for _, pc := range res.FaultCounts {
		if pc.Point == faults.RackKill && pc.Fires == 1 {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("rack.kill never fired: %+v", res.FaultCounts)
	}
	if res.OKs == 0 {
		t.Errorf("no read survived the rack kill (%d typed, %d misses)", res.TypedErrors, res.OpenMisses)
	}
}

// TestRackStormDeterminism replays the composed storm: same (seed, spec) must
// produce a byte-identical outcome stream.
func TestRackStormDeterminism(t *testing.T) {
	const plan = "rack.kill:after=8,max=1;shard.kill:p=0.05;domain.partition:p=0.06,delay=1ms"
	spec, err := faults.ParseSpec(plan)
	if err != nil {
		t.Fatal(err)
	}
	a := RunRack(RackOptions{Seed: 11, Spec: spec})
	b := RunRack(RackOptions{Seed: 11, Spec: spec})
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same (seed, spec) diverged: %x vs %x", a.Fingerprint, b.Fingerprint)
	}
	// Both replays must hold the invariants; a's record files them all.
	a.Violations = append(a.Violations, b.Violations...)
	checkRun(t, failureRecord{Harness: "RunRack", Seed: 11, Plan: "determinism", Spec: plan}, a, "")
}
