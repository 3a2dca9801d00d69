package chaostest

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"vread/internal/cluster"
	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/hdfs"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// RackOptions selects one rack-storm chaos run: a federated namespace over a
// multi-domain topology with replicated blocks, a read storm with replica
// failover, and a fault plan that may take out a whole rack (rack.kill), a
// namespace shard (shard.kill) or an inter-domain link (domain.partition)
// mid-storm.
type RackOptions struct {
	Seed      int64
	Spec      faults.Spec
	Transport core.Transport
	// Topology: Domains × RacksPerDomain × HostsPerRack (default 3×2×2).
	Domains        int
	RacksPerDomain int
	HostsPerRack   int
	Shards         int    // namespace shards (default 4)
	Replication    int    // replicas per block (default 3)
	KillRack       string // victim rack for rack.kill (default first rack)
	// MigrateDN composes the migration storm with the rack storm: when set
	// (and the spec arms mount.migrate), each read round may ping-pong this
	// datanode's mount between its home host and the client's host mid-kill.
	// Pick a datanode outside the victim rack.
	MigrateDN string
	Files     int   // files written before the storm (default 4)
	FileSize  int64 // bytes per file (default 256 KiB)
	Reads     int   // read operations in the storm (default 40)
	Deadline  time.Duration
}

func (o RackOptions) withDefaults() RackOptions {
	o.Domains = cmp.Or(o.Domains, 3)
	o.RacksPerDomain = cmp.Or(o.RacksPerDomain, 2)
	o.HostsPerRack = cmp.Or(o.HostsPerRack, 2)
	o.Shards = cmp.Or(o.Shards, 4)
	o.Replication = cmp.Or(o.Replication, 3)
	o.Files = cmp.Or(o.Files, 4)
	o.FileSize = cmp.Or(o.FileSize, 256<<10)
	o.Reads = cmp.Or(o.Reads, 40)
	o.Deadline = cmp.Or(o.Deadline, time.Hour)
	return o
}

// RunRack executes one rack-storm scenario and returns its outcome under the
// same invariants as Run: correct-bytes-or-typed-error on every read (with
// replica failover — a read only counts as failed when every replica failed
// typed), span balance, full drain, and a deterministic fingerprint.
func RunRack(o RackOptions) Result {
	o = o.withDefaults()
	res := Result{}
	s := newStorm(o.Seed, o.Spec, &res)
	defer s.c.Close()
	c, plan := s.c, s.plan
	hosts := c.BuildTopology(cluster.TopologySpec{
		Domains:        o.Domains,
		RacksPerDomain: o.RacksPerDomain,
		HostsPerRack:   o.HostsPerRack,
	})
	racks := c.Racks()
	victim := cmp.Or(o.KillRack, racks[0])
	c.InjectFaults(plan)
	c.Fabric.InjectFaults(plan)
	for _, h := range hosts {
		h.Disk.InjectFaults(plan)
	}

	// One datanode VM on the first host of every rack; the client in the
	// last domain, so the victim rack never takes the reader down with it.
	dnNames := make([]string, len(racks))
	for i, rack := range racks {
		dnNames[i] = fmt.Sprintf("dn%d", i)
		c.RackHosts(rack)[0].AddVM(dnNames[i], metrics.TagDatanodeApp)
	}
	clientVM := hosts[len(hosts)-1].AddVM("client", metrics.TagClientApp)

	router := hdfs.NewRouter(c.Env, hdfs.Config{Replication: o.Replication}, c.Fabric,
		hdfs.RouterOptions{Shards: o.Shards, RingSeed: o.Seed})
	router.InjectFaults(plan)
	for _, dn := range dnNames {
		hdfs.StartDataNode(c.Env, router, c.VM(dn).Kernel)
	}
	cl := hdfs.NewClient(c.Env, router, clientVM.Kernel)

	mgr := core.NewManager(c, router, core.Config{Transport: o.Transport, Faults: plan})
	for _, dn := range dnNames {
		mgr.MountDatanode(dn)
	}
	lib := mgr.EnableClient("client")
	cl.SetBlockReader(lib)

	s.run("rack-storm", cl, "/rack", o.Files, o.FileSize, func(p *sim.Proc, rng *rand.Rand, contents []data.Pattern) {
		var migHome string
		if o.MigrateDN != "" {
			migHome = c.VM(o.MigrateDN).Host.Name
		}
		for i := 0; i < o.Reads; i++ {
			res.Reads++
			if c.MaybeKillRack(victim) {
				s.record("%d|rack-kill|%s|%d\n", i, victim, c.Env.Now())
			}
			if o.MigrateDN != "" {
				s.pingPong(p, mgr, i, o.MigrateDN, migHome, clientVM.Host.Name)
			}
			fileIdx := rng.Intn(o.Files)
			off, n, want := readRange(rng, contents[fileIdx])

			infos, err := router.GetBlockLocations(p, cl.Kernel(), fmt.Sprintf("/rack/f%d", fileIdx))
			if err != nil {
				if errors.Is(err, hdfs.ErrShardDown) {
					res.TypedErrors++
					s.record("%d|f%d|%d|%d|shard-down|%d\n", i, fileIdx, off, n, c.Env.Now())
				} else {
					s.violate("read %d f%d: untyped metadata error %v", i, fileIdx, err)
					s.record("%d|f%d|%d|%d|untyped|%d\n", i, fileIdx, off, n, c.Env.Now())
				}
				continue
			}
			blk := infos[0] // one block per file at these sizes

			tr := s.tracer.Request(fmt.Sprintf("rack-read-%d", i))
			a := lib.VerifiedRead(p, tr, blk.Locations, blk.ID, off, n, want, func(f core.ReadAttempt) {
				if f.Outcome == core.ReadMiss {
					res.OpenMisses++
				}
				s.record("%d|%s@%s|%s|%d\n", i, blk.BlockName(), f.Loc, tag(f), c.Env.Now())
			})
			tr.Finish(n)
			t := tag(a)
			if a.Outcome == core.ReadMiss || a.Outcome == core.ReadTyped {
				// Every replica failed with a typed error or an open miss.
				t, a.Outcome = "exhausted", core.ReadTyped
			}
			s.record("%d|%s|%d|%d|%s|%d\n", i, blk.BlockName(), off, n, t, c.Env.Now())
			s.count(a, "read %d %s [%d,%d)", i, blk.BlockName(), off, off+n)
		}
	})

	if !s.settle(o.Deadline, mgr) {
		return res
	}
	s.seal("kills=%d routed=%d\n", router.ShardKills(), router.Routed())
	return res
}
