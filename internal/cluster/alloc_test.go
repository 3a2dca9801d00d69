package cluster_test

import (
	"runtime"
	"testing"

	"vread/internal/cluster"
	"vread/internal/metrics"
)

// raceEnabled is set under the race detector, whose instrumentation
// allocates on its own: allocation bounds hold only without it.
var raceEnabled bool

// TestIdleHostAllocs: a host that runs nothing costs its name, devices and
// rack bookkeeping, not a scheduler. Building the 1,000-host federation
// topology allocates at most 14 objects per host (every host used to build
// four cores and resolve its softirq ledger, 30.4 objects per host). The
// first Post to a thread builds its CPU's cores, and the cycles land in the
// registry as they always have: the work, plus the cache-cold refill the
// first dispatch on a core charges.
func TestIdleHostAllocs(t *testing.T) {
	c := cluster.New(1, cluster.Params{})
	defer c.Close()
	spec := cluster.TopologySpec{Domains: 4, RacksPerDomain: 10, HostsPerRack: 25}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hosts := c.BuildTopology(spec)
	runtime.ReadMemStats(&after)
	perHost := float64(after.Mallocs-before.Mallocs) / float64(len(hosts))
	t.Logf("%.1f objects per host", perHost)
	if perHost > 14 && !raceEnabled {
		t.Errorf("BuildTopology allocated %.1f objects per host, want at most 14", perHost)
	}

	h := hosts[0]
	done, doneAt := false, int64(0)
	h.Softirq.Post(1000, metrics.TagVhostNet, func() { done, doneAt = true, c.Env.Now().Nanoseconds() })
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if !done || h.Softirq.Consumed() != 16000 {
		t.Fatalf("first post: done %v, consumed %d cycles, want 16000", done, h.Softirq.Consumed())
	}
	if got := c.Reg.Cycles(h.Name, metrics.TagVhostNet); got != 1000 {
		t.Errorf("%s charged %d %s cycles, want 1000", h.Name, got, metrics.TagVhostNet)
	}
	if got := c.Reg.Cycles(h.Name, metrics.TagOthers); got != 15000 {
		t.Errorf("%s charged %d %s cycles, want the 15000-cycle cache-cold refill", h.Name, got, metrics.TagOthers)
	}
	if es := c.Reg.Entities(); len(es) != 1 || es[0] != h.Name {
		t.Errorf("registry entities %v, want only %s", es, h.Name)
	}
	if doneAt != 11000 {
		t.Errorf("work finished at %dns, want 11000 (3µs wake latency + 16000 cycles at 2 GHz)", doneAt)
	}
}
