package chaostest

import (
	"fmt"
	"testing"

	"vread/internal/faults"
)

// hostilePlans is the hostile-guest smoke matrix: every hostile ring
// faultpoint appears in at least one plan, at rates high enough to fire
// within a 25-round storm, plus a composition with live mount migration.
var hostilePlans = []struct {
	name string
	spec string
}{
	{"bad-slot", "ring.badslot:p=0.3"},
	{"stale-key", "ring.stalekey:p=0.3"},
	{"doorbell-storm", "ring.doorbellstorm:p=0.25"},
	{"slot-held", "ring.slotheld:p=0.3,delay=500us"},
	{"full-hostile", "ring.badslot:p=0.15;ring.stalekey:p=0.15;ring.doorbellstorm:p=0.1;ring.slotheld:p=0.1,delay=200us"},
	{"hostile-migrate", "ring.badslot:p=0.15;ring.stalekey:p=0.15;mount.migrate:p=0.2"},
}

var hostileSeeds = []int64{1, 7, 42}

// checkHostile is checkRun for a hostile run, whose golden line adds the
// migration count and the hostile ring's final state.
func checkHostile(t *testing.T, rec failureRecord, res HostileResult) {
	t.Helper()
	checkRun(t, rec, res.Result, fmt.Sprintf(" migrations=%d revoked=%v", res.Migrations, res.Revoked))
}

// TestChaosHostileSmoke sweeps the hostile seed × plan matrix. Every run must
// hold all four invariants (correct-bytes-or-typed-error, span balance, full
// drain, determinism) plus per-VM isolation — the plans are all hostile-only,
// so a single failed victim read is a violation.
func TestChaosHostileSmoke(t *testing.T) {
	distinct := make(map[string]bool)
	for _, plan := range hostilePlans {
		spec, err := faults.ParseSpec(plan.spec)
		if err != nil {
			t.Fatalf("plan %s: %v", plan.name, err)
		}
		for _, seed := range hostileSeeds {
			res := RunHostile(HostileOptions{Seed: seed, Spec: spec})
			checkHostile(t, failureRecord{Harness: "RunHostile", Seed: seed, Plan: plan.name, Spec: plan.spec}, res)
			if res.VictimOKs == 0 {
				t.Errorf("plan %s seed %d: no victim read survived", plan.name, seed)
			}
			if res.HostileOKs+res.HostileErrors+res.HostileMisses == 0 {
				t.Errorf("plan %s seed %d: hostile cohort never read", plan.name, seed)
			}
			for _, pc := range res.FaultCounts {
				if pc.Fires > 0 {
					distinct[pc.Point] = true
				}
			}
		}
	}
	for _, point := range []string{
		faults.RingBadSlot, faults.RingStaleKey, faults.RingDoorbellStorm,
		faults.RingSlotHeld, faults.MountMigrate,
	} {
		if !distinct[point] {
			t.Errorf("faultpoint %s never fired across the hostile smoke matrix", point)
		}
	}
}

// TestChaosHostileSameSeedIsByteIdentical: determinism for the hostile
// harness — same (seed, plan, K) → same fingerprint, different seed → a
// different schedule.
func TestChaosHostileSameSeedIsByteIdentical(t *testing.T) {
	for _, plan := range hostilePlans {
		spec, err := faults.ParseSpec(plan.spec)
		if err != nil {
			t.Fatal(err)
		}
		o := HostileOptions{Seed: 42, Spec: spec}
		a, b := RunHostile(o), RunHostile(o)
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("plan %s: same-seed fingerprints differ: %016x vs %016x",
				plan.name, a.Fingerprint, b.Fingerprint)
		}
		if a.Fingerprint == 0 {
			t.Errorf("plan %s: empty fingerprint", plan.name)
		}
	}
	spec, _ := faults.ParseSpec(hostilePlans[0].spec)
	a := RunHostile(HostileOptions{Seed: 1, Spec: spec})
	b := RunHostile(HostileOptions{Seed: 2, Spec: spec})
	if a.Fingerprint == b.Fingerprint {
		t.Error("different seeds produced identical fingerprints")
	}
}

// TestChaosHostileRevocation: a persistently forging guest trips the
// revocation threshold; the storm must end with the hostile ring revoked,
// the victims untouched, and no invariant broken — the hostile VM's reads
// degrade to typed errors and open misses, never corruption or a hang.
func TestChaosHostileRevocation(t *testing.T) {
	spec, err := faults.ParseSpec("ring.badslot:p=0.9")
	if err != nil {
		t.Fatal(err)
	}
	res := RunHostile(HostileOptions{Seed: 11, Spec: spec, RevokeThreshold: 4})
	checkHostile(t, failureRecord{Harness: "RunHostile", Seed: 11, Plan: "revoke", Spec: "ring.badslot:p=0.9"}, res)
	if !res.Revoked {
		t.Fatal("persistent forgeries did not revoke the hostile ring")
	}
	if res.VictimErrors != 0 {
		t.Fatalf("%d victim reads failed alongside the revocation", res.VictimErrors)
	}
	if res.HostileErrors+res.HostileMisses == 0 {
		t.Fatal("revocation left no trace on the hostile cohort")
	}
}

// TestChaosHostileFaultFreeBaseline: the hostile harness itself is clean —
// with nothing armed, both cohorts read perfectly.
func TestChaosHostileFaultFreeBaseline(t *testing.T) {
	res := RunHostile(HostileOptions{Seed: 5, Reads: 8})
	checkHostile(t, failureRecord{Harness: "RunHostile", Seed: 5, Plan: "fault-free"}, res)
	if res.OKs != res.Reads || res.TypedErrors != 0 || res.OpenMisses != 0 {
		t.Fatalf("baseline: %d/%d ok, %d errors, %d misses",
			res.OKs, res.Reads, res.TypedErrors, res.OpenMisses)
	}
	if res.DistinctFired() != 0 {
		t.Fatalf("faults fired with no plan armed: %+v", res.FaultCounts)
	}
}

// TestChaosMigrateSmoke: the migration storm alone — mount.migrate firing
// every few rounds must cost only latency: zero lost or corrupted reads on
// either cohort, with the blackout visible as captured descriptors.
func TestChaosMigrateSmoke(t *testing.T) {
	spec, err := faults.ParseSpec("mount.migrate:p=0.3")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range hostileSeeds {
		res := RunHostile(HostileOptions{Seed: seed, Spec: spec})
		checkHostile(t, failureRecord{Harness: "RunHostile", Seed: seed, Plan: "migrate", Spec: "mount.migrate:p=0.3"}, res)
		if res.Migrations == 0 {
			t.Errorf("seed %d: mount.migrate never fired", seed)
		}
		if res.TypedErrors != 0 || res.OpenMisses != 0 {
			t.Errorf("seed %d: migration cost %d typed errors and %d misses, want pure latency",
				seed, res.TypedErrors, res.OpenMisses)
		}
		if res.OKs != res.Reads {
			t.Errorf("seed %d: %d/%d reads ok across migrations", seed, res.OKs, res.Reads)
		}
	}
}

// TestChaosMigrateDuringRackStorm composes live mount migration with the
// rack-kill storm: a mount ping-ponging between hosts while a whole rack goes
// dark, under the full rack-storm invariants.
func TestChaosMigrateDuringRackStorm(t *testing.T) {
	spec, err := faults.ParseSpec("rack.kill:p=0.05;mount.migrate:p=0.2")
	if err != nil {
		t.Fatal(err)
	}
	res := RunRack(RackOptions{Seed: 42, Spec: spec, MigrateDN: "dn2"})
	checkRun(t, failureRecord{Harness: "RunRack", Seed: 42, Plan: "migrate-dn2", Spec: "rack.kill:p=0.05;mount.migrate:p=0.2"}, res, "")
	if res.OKs == 0 {
		t.Fatal("no read survived the composed storm")
	}
	migrated := false
	for _, pc := range res.FaultCounts {
		if pc.Point == faults.MountMigrate && pc.Fires > 0 {
			migrated = true
		}
	}
	if !migrated {
		t.Fatal("mount.migrate never fired during the rack storm")
	}
}
