package chaostest

import (
	"cmp"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/experiments"
	"vread/internal/faults"
	"vread/internal/sim"
)

// hostileGuestPoints are the faultpoints that model a misbehaving guest on
// its own ring. RunHostile arms these on the hostile VM only (via
// InjectGuestFaults), so the storm proves per-VM isolation: the victims'
// rings never see the forgeries.
var hostileGuestPoints = map[string]bool{
	faults.RingBadSlot:       true,
	faults.RingStaleKey:      true,
	faults.RingDoorbellStorm: true,
	faults.RingSlotHeld:      true,
}

// HostileOptions selects one hostile-guest chaos run: one hostile client VM
// whose ring endpoints forge descriptors per the spec's hostile points, plus
// victim client VMs reading the same blocks cleanly, all on the two-host
// reader testbed with alternating block placement.
type HostileOptions struct {
	Seed int64
	Spec faults.Spec
	// RevokeThreshold, when > 0, arms the daemon's auto-revocation after that
	// many consecutive rejects on the hostile ring.
	RevokeThreshold int
	Reads           int           // read rounds, each one hostile + one read per victim (default 25)
	Deadline        time.Duration // virtual-time budget for the run (default 1h)
}

// hostileClients are RunHostile's client VMs: the hostile one, then the
// well-behaved victims reading alongside it.
var hostileClients = []string{"hostile", "victim0", "victim1"}

// HostileResult extends Result with per-cohort outcome counts.
type HostileResult struct {
	Result
	HostileOKs    int // hostile reads that still returned correct bytes
	HostileErrors int // hostile reads refused with a typed error
	HostileMisses int // hostile opens denied (e.g. after revocation)
	VictimOKs     int
	VictimErrors  int
	Migrations    int  // live mount migrations fired by mount.migrate
	Revoked       bool // the hostile ring ended the storm revoked
}

// hostileOnly reports whether every armed point is a per-VM ring forgery or
// the migration action — the plans under which victim reads have no excuse to
// fail (per-VM isolation is the property under test).
func hostileOnly(spec faults.Spec) bool {
	for _, r := range spec {
		if !hostileGuestPoints[r.Point] && !strings.HasPrefix(r.Point, "mount.") {
			return false
		}
	}
	return true
}

// RunHostile executes one hostile-guest scenario. On top of Run's invariants
// (correct-bytes-or-typed-error, span balance, full drain, deterministic
// fingerprint) it checks per-VM isolation: when the spec arms only hostile
// ring points and migrations, every victim read must return correct bytes.
// When the spec arms mount.migrate, each round ping-pongs dn2's mount
// between the two hosts mid-storm.
func RunHostile(o HostileOptions) HostileResult {
	res := HostileResult{}
	s := newStorm(o.Seed, o.Spec, &res.Result)
	defer s.c.Close()
	s.guest = faults.NewPlan(s.c.Env)
	mgr, writer, libs := experiments.BuildReaders(s.c, hostileClients, stormBlockSize, s.place, core.Config{
		RingRevokeThreshold: o.RevokeThreshold,
		Faults:              s.plan,
	})
	// The isolation lever: the guest plan owns exactly the hostile VM's ring
	// endpoints. Victim rings keep the manager-wide plan.
	mgr.InjectGuestFaults("hostile", s.guest)

	s.run("hostile-storm", writer, "/hostile", stormFiles, stormFileSize, func(p *sim.Proc, rng *rand.Rand, contents []data.Pattern) {
		// One read through one client. Victim blocks may live on a mount
		// that is mid-quiesce when a migration fires — the read simply blocks
		// through the blackout, which is exactly the property under test.
		readOnce := func(c, i int) core.ReadOutcome {
			return s.blockRead(p, rng, libs[c], contents, fmt.Sprintf("%s-read-%d", hostileClients[c], i), fmt.Sprintf("%d|%s|", i, hostileClients[c]))
		}
		for i := 0; i < cmp.Or(o.Reads, 25); i++ {
			if s.pingPong(p, mgr, i, "dn2", "host2", "host1") {
				res.Migrations++
			}
			switch readOnce(0, i) {
			case core.ReadOK:
				res.HostileOKs++
			case core.ReadTyped:
				res.HostileErrors++
			case core.ReadMiss:
				res.HostileMisses++
			}
			for v := 1; v < len(hostileClients); v++ {
				switch readOnce(v, i) {
				case core.ReadOK:
					res.VictimOKs++
				case core.ReadTyped:
					res.VictimErrors++
				case core.ReadMiss:
					s.violate("%s round %d: open denied", hostileClients[v], i)
				}
			}
		}
	})

	if !s.settle(cmp.Or(o.Deadline, stormDeadline), mgr) {
		return res
	}
	// Per-VM isolation: under a purely hostile (plus migration) plan the
	// victims must come through spotless.
	if hostileOnly(o.Spec) && res.VictimErrors != 0 {
		s.violate("%d victim reads failed under a hostile-only plan: isolation broken", res.VictimErrors)
	}
	res.Revoked = mgr.Daemon("hostile").RingState() == "revoked"
	for _, v := range hostileClients[1:] {
		if st := mgr.Daemon(v).RingState(); st != "attached" {
			s.violate("victim %s ring ended the storm %s", v, st)
		}
	}
	hs := mgr.DaemonStats("hostile")
	s.seal("rejects=%d stale=%d revoked=%v migrations=%d\n", hs.RingRejects, hs.StaleKeys, res.Revoked, res.Migrations)
	return res
}
