package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"vread/internal/cluster"
	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/netsim"
	"vread/internal/sim"
)

// TestTopologyShape checks BuildTopology's deterministic naming, dense host
// IDs, and rack/domain bookkeeping.
func TestTopologyShape(t *testing.T) {
	c := cluster.New(1, cluster.Params{})
	defer c.Close()
	spec := cluster.TopologySpec{Domains: 2, RacksPerDomain: 3, HostsPerRack: 4}
	hosts := c.BuildTopology(spec)
	if len(hosts) != spec.Hosts() || spec.Hosts() != 24 {
		t.Fatalf("built %d hosts, want 24", len(hosts))
	}
	for i, h := range hosts {
		if h.ID != i {
			t.Fatalf("host %s has ID %d, want dense %d", h.Name, h.ID, i)
		}
	}
	if hosts[0].Name != "d0r0h0" || hosts[23].Name != "d1r2h3" {
		t.Fatalf("naming wrong: %s … %s", hosts[0].Name, hosts[23].Name)
	}
	racks := c.Racks()
	if len(racks) != 6 || racks[0] != "d0r0" || racks[5] != "d1r2" {
		t.Fatalf("racks = %v", racks)
	}
	if got := c.RackHosts("d1r0"); len(got) != 4 || got[0].Domain != "d1" {
		t.Fatalf("RackHosts(d1r0) = %v", got)
	}
	if r, _ := c.Fabric.RackOf("d1r2h3"); r != "d1r2" {
		t.Fatalf("fabric rack of d1r2h3 = %q", r)
	}
	if d, _ := c.Fabric.DomainOf("d1r2h3"); d != "d1" {
		t.Fatalf("fabric domain of d1r2h3 = %q", d)
	}
	if len(c.Hosts()) != 24 {
		t.Fatalf("Hosts() returned %d", len(c.Hosts()))
	}
}

// TestTopologyScales builds a 1000-host fabric — the host-ID allocation and
// rack bookkeeping must stay O(1) per host (this test is fast or broken).
func TestTopologyScales(t *testing.T) {
	c := cluster.New(1, cluster.Params{})
	defer c.Close()
	hosts := c.BuildTopology(cluster.TopologySpec{Domains: 4, RacksPerDomain: 10, HostsPerRack: 25})
	if len(hosts) != 1000 {
		t.Fatalf("built %d hosts", len(hosts))
	}
	if hosts[999].ID != 999 || hosts[999].Name != "d3r9h24" {
		t.Fatalf("last host = %s id %d", hosts[999].Name, hosts[999].ID)
	}
}

// TestKillRack takes a rack down: a frame to each of its hosts is dropped,
// while the hosts of another rack still receive theirs.
func TestKillRack(t *testing.T) {
	c := cluster.New(1, cluster.Params{})
	defer c.Close()
	c.BuildTopology(cluster.TopologySpec{Domains: 2, RacksPerDomain: 2, HostsPerRack: 2})
	c.KillRack("d0r1")
	got := delivered(t, c, c.Host("d1r0h0"), append(c.RackHosts("d0r0"), c.RackHosts("d0r1")...))
	for _, h := range c.RackHosts("d0r1") {
		if got[h.Name] {
			t.Fatalf("%s received a frame after KillRack", h.Name)
		}
	}
	for _, h := range c.RackHosts("d0r0") {
		if !got[h.Name] {
			t.Fatalf("%s lost a frame although its rack was not killed", h.Name)
		}
	}
}

// delivered sends one frame from src to each of dsts and reports which
// hosts received theirs.
func delivered(t *testing.T, c *cluster.Cluster, src *cluster.Host, dsts []*cluster.Host) map[string]bool {
	t.Helper()
	got := map[string]bool{}
	for _, h := range dsts {
		name := h.Name
		c.Fabric.BindHostPort(name, 9, func(netsim.Frame) { got[name] = true })
		src.NIC.SendToHost(name, 9, netsim.Frame{Payload: data.NewSlice(data.Bytes("x"))}, nil)
	}
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMaybeKillRack arms the rack.kill faultpoint and checks the kill fires
// exactly where the spec pins it.
func TestMaybeKillRack(t *testing.T) {
	c := cluster.New(1, cluster.Params{})
	defer c.Close()
	c.BuildTopology(cluster.TopologySpec{Domains: 1, RacksPerDomain: 3, HostsPerRack: 1})
	plan := faults.NewPlan(c.Env)
	c.InjectFaults(plan)

	// Unarmed: never fires.
	if c.MaybeKillRack("d0r0") {
		t.Fatal("rack.kill fired with no rule armed")
	}
	spec, err := faults.ParseSpec("rack.kill:after=2,max=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range spec {
		plan.Set(r)
	}
	var fired []int
	for i := 0; i < 6; i++ {
		if c.MaybeKillRack("d0r0") {
			fired = append(fired, i)
		}
	}
	if fmt.Sprint(fired) != "[2]" {
		t.Fatalf("rack.kill fired at %v, want exactly [2]", fired)
	}
	if got := delivered(t, c, c.Host("d0r2h0"), []*cluster.Host{c.Host("d0r0h0"), c.Host("d0r1h0")}); got["d0r0h0"] || !got["d0r1h0"] {
		t.Fatalf("kill hit the wrong rack: delivered %v", got)
	}
}

// TestInjectFaultsArmsLaterHosts: one InjectFaults call arms the fabric and
// every host's disk, including a host added after the plan was armed.
func TestInjectFaultsArmsLaterHosts(t *testing.T) {
	c := cluster.New(1, cluster.Params{})
	defer c.Close()
	plan := faults.NewPlan(c.Env)
	plan.Set(faults.Rule{Point: faults.DiskReadSlow, Prob: 1, Delay: 5 * time.Millisecond})
	c.InjectFaults(plan)
	h := c.AddHost("late")
	var done time.Duration
	c.Go("read", func(p *sim.Proc) {
		h.Disk.ReadAsync(0, p.Arm())
		p.Await()
		done = c.Env.Now()
	})
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := plan.Fired(faults.DiskReadSlow); got != 1 || done < 5*time.Millisecond {
		t.Fatalf("disk.read.slow fired %d times, read done at %v; want 1 and >= 5ms", got, done)
	}
}

// TestDuplicateHostIDsImpossible: the collision check rejects a reused host
// name before any ID is burned.
func TestDuplicateHostIDsImpossible(t *testing.T) {
	c := cluster.New(1, cluster.Params{})
	defer c.Close()
	c.AddHostAt("h0", "r0", "d0")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on duplicate host name")
			}
		}()
		c.AddHostAt("h0", "r1", "d1")
	}()
	h := c.AddHostAt("h1", "r0", "d0")
	if h.ID != 1 {
		t.Fatalf("ID after rejected duplicate = %d, want 1", h.ID)
	}
}
