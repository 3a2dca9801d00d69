package chaostest

import (
	"cmp"
	"fmt"
	"math/rand"

	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/experiments"
	"vread/internal/faults"
	"vread/internal/hdfs"
	"vread/internal/sim"
)

// RackOptions selects one rack-storm chaos run: a federated namespace over a
// multi-domain topology with replicated blocks, a read storm with replica
// failover, and a fault plan that may take out a whole rack (rack.kill), a
// namespace shard (shard.kill) or an inter-domain link (domain.partition)
// mid-storm.
type RackOptions struct {
	Seed int64
	Spec faults.Spec
	// MigrateDN composes the migration storm with the rack storm: when set
	// (and the spec arms mount.migrate), each read round may ping-pong this
	// datanode's mount between its home host and the client's host mid-kill.
	// Pick a datanode outside the victim, the first rack (dn0's).
	MigrateDN string
	Reads     int // read operations in the storm (default 40)
}

// rackFederation is the rack storm's testbed and dataset: 3 domains × 2
// racks × 2 hosts, one datanode on the first host of every rack, 4
// namespace shards, 3 replicas per block, and 4 files of 256 KiB.
var rackFederation = experiments.ScaleConfig{
	Domains: 3, RacksPerDomain: 2, HostsPerRack: 2,
	Datanodes: 3 * 2, Shards: 4, Replication: 3,
	Files: 4, FileSize: 256 << 10,
}

// RunRack executes one rack-storm scenario and returns its outcome under the
// same invariants as Run: correct-bytes-or-typed-error on every read (with
// replica failover — a read only counts as failed when every replica failed
// typed), span balance, full drain, and a deterministic fingerprint.
func RunRack(o RackOptions) Result {
	res := Result{}
	s := newStorm(o.Seed, o.Spec, &res)
	defer s.c.Close()
	c := s.c
	fed := experiments.BuildFederation(c, rackFederation, o.Seed, 0, core.Config{Faults: s.plan}, []string{"client"})
	victim := c.Racks()[0]

	s.run("rack-storm", fed.Clients[0], "/rack", rackFederation.Files, rackFederation.FileSize, func(p *sim.Proc, rng *rand.Rand, contents []data.Pattern) {
		var migHome string
		if o.MigrateDN != "" {
			migHome = c.VM(o.MigrateDN).Host.Name
		}
		for i := 0; i < cmp.Or(o.Reads, 40); i++ {
			res.Reads++
			if c.MaybeKillRack(victim) {
				s.record("%d|rack-kill|%s|%d\n", i, victim, c.Env.Now())
			}
			if o.MigrateDN != "" {
				s.pingPong(p, fed.Mgr, i, o.MigrateDN, migHome, c.VM("client").Host.Name)
			}
			fileIdx := rng.Intn(rackFederation.Files)
			off, n, want := readRange(rng, contents[fileIdx])

			tr := s.tracer.Request(fmt.Sprintf("rack-read-%d", i))
			blk, a := fed.Read(p, 0, tr, fmt.Sprintf("/rack/f%d", fileIdx), off, n, want, func(b hdfs.BlockID, f core.ReadAttempt) {
				if f.Outcome == core.ReadMiss {
					res.OpenMisses++
				}
				s.record("%d|%s@%s|%s|%d\n", i, b.BlockName(), f.Loc, tag(f), c.Env.Now())
			})
			tr.Finish(n)
			if blk == nil { // the metadata lookup failed
				t := "untyped"
				if a.Outcome == core.ReadTyped {
					t = "shard-down"
				}
				s.record("%d|f%d|%d|%d|%s|%d\n", i, fileIdx, off, n, t, c.Env.Now())
				s.count(a, "read %d f%d metadata", i, fileIdx)
				continue
			}
			t := tag(a)
			if a.Outcome == core.ReadMiss || a.Outcome == core.ReadTyped {
				// Every replica failed with a typed error or an open miss.
				t, a.Outcome = "exhausted", core.ReadTyped
			}
			s.record("%d|%s|%d|%d|%s|%d\n", i, blk.BlockName(), off, n, t, c.Env.Now())
			s.count(a, "read %d %s [%d,%d)", i, blk.BlockName(), off, off+n)
		}
	})

	if !s.settle(stormDeadline, fed.Mgr) {
		return res
	}
	s.seal("kills=%d routed=%d\n", fed.Router.ShardKills(), fed.Router.Routed())
	return res
}
