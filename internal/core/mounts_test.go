package core

import (
	"fmt"
	"testing"
	"time"

	"vread/internal/cluster"
	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// TestTwoDatanodesShareTheHostMountMap: one host's server holds the mounts
// of both datanodes on it. A burst of block events across both datanodes
// costs one refresh wakeup, after which both mounts resolve the new blocks;
// a daemon crash invalidates both mounts, and ResyncHost restores both.
func TestTwoDatanodesShareTheHostMountMap(t *testing.T) {
	dns := []string{"dnA", "dnB"}
	setup := func() (*cluster.Cluster, *Manager, *faults.Plan) {
		c := cluster.New(1, cluster.Params{})
		plan := faults.NewPlan(c.Env)
		h1 := c.AddHost("host1")
		h1.AddVM("client", metrics.TagClientApp)
		for _, dn := range dns {
			h1.AddVM(dn, metrics.TagDatanodeApp)
		}
		m := NewManager(c, nil, Config{Faults: plan})
		for _, dn := range dns {
			m.MountDatanode(dn)
		}
		m.EnableClient("client")
		return c, m, plan
	}
	// burst writes perDN new block files on each datanode and announces
	// each as the namenode announces a written block, all at one instant.
	type block struct{ dn, path string }
	burst := func(c *cluster.Cluster, m *Manager, perDN int) []block {
		var blocks []block
		for i, dn := range dns {
			for j := 0; j < perDN; j++ {
				b := block{dn, fmt.Sprintf("/blk_%d", 10*i+j)}
				if err := c.VM(dn).FS.WriteFile(b.path, data.Pattern{Seed: uint64(i), Size: 4096}); err != nil {
					t.Fatal(err)
				}
				m.BlockAdded(b.dn, b.path)
				blocks = append(blocks, b)
			}
		}
		return blocks
	}

	// One wakeup: the burst queues exactly the server-thread work that a
	// lone refresh on an identical host queues (refreshCycles plus the idle
	// thread's dispatch charges); the batch's other ops are charged when
	// the drain runs.
	c1, m1, _ := setup()
	defer c1.Close()
	m1.BlockAdded(dns[0], "/blk_0")
	oneWakeup := m1.servers["host1"].thread.Pending()

	c, m, plan := setup()
	defer c.Close()
	lib := m.libs["client"]
	blocks := burst(c, m, 2)
	if got := m.servers["host1"].thread.Pending(); got != oneWakeup {
		t.Fatalf("burst of %d ops queued %d server-thread cycles, one wakeup queues %d", len(blocks), got, oneWakeup)
	}
	if err := c.Env.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := m.Refreshes(); got != int64(len(blocks)) {
		t.Fatalf("Refreshes() = %d, want %d", got, len(blocks))
	}
	resolves := func(when string, want bool) {
		t.Helper()
		for _, b := range blocks {
			if _, ok := m.mount("host1", b.dn).Lookup(b.path); ok != want {
				t.Fatalf("%s: %s on %s resolves = %v, want %v", when, b.path, b.dn, ok, want)
			}
		}
	}
	resolves("after the burst", true)

	// The first ring request crashes the daemon, which drops the metadata
	// of every mount on its host.
	plan.Set(faults.Rule{Point: faults.DaemonCrash, Prob: 1, MaxFires: 1})
	open := func(b block) (ok bool) {
		c.Go("open", func(p *sim.Proc) { _, ok = lib.OpenPath(p, nil, b.dn, b.path, b.dn+b.path) })
		if err := c.Env.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if open(blocks[0]) {
		t.Fatal("open succeeded through a crashing daemon")
	}
	if st := m.Daemon("client").Stats(); st.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", st.Crashes)
	}
	resolves("after the crash", false)

	m.ResyncHost("host1")
	resolves("after ResyncHost", true)
	if !open(blocks[len(blocks)-1]) {
		t.Fatal("open after ResyncHost missed")
	}
}
