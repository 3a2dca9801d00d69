package cluster_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vread/internal/cluster"
	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/hdfs"
	"vread/internal/metrics"
	"vread/internal/netsim"
	"vread/internal/sim"
)

func TestBuildTopology(t *testing.T) {
	c := cluster.New(1, cluster.Params{})
	defer c.Close()
	h1 := c.AddHost("host1")
	h2 := c.AddHost("host2")
	vm1 := h1.AddVM("a", metrics.TagClientApp)
	h2.AddVM("b", metrics.TagDatanodeApp)

	if c.Host("host1") != h1 || c.Host("nope") != nil {
		t.Fatal("host lookup broken")
	}
	if c.VM("a") != vm1 || c.VM("nope") != nil {
		t.Fatal("vm lookup broken")
	}
	if got, _ := c.Fabric.HostOf("a"); got != "host1" {
		t.Fatalf("fabric placement = %q", got)
	}
	if len(h1.VMs) != 1 || len(h2.VMs) != 1 {
		t.Fatal("host VM lists wrong")
	}
	// Host-cache object namespacing: distinct VMs never collide.
	if vm1.HostCacheObject(5) == c.VM("b").HostCacheObject(5) {
		t.Fatal("host cache objects collide across VMs")
	}
}

func TestDuplicateNamesPanic(t *testing.T) {
	c := cluster.New(1, cluster.Params{})
	defer c.Close()
	h := c.AddHost("h")
	h.AddVM("x", metrics.TagClientApp)
	for _, fn := range []func(){
		func() { c.AddHost("h") },
		func() { h.AddVM("x", metrics.TagClientApp) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on duplicate name")
				}
			}()
			fn()
		}()
	}
}

// TestMigrateVM moves a datanode VM between hosts and checks reads keep
// working through both the vanilla and vRead paths (§6's compatibility).
func TestMigrateVM(t *testing.T) {
	c := cluster.New(1, cluster.Params{})
	defer c.Close()
	h1 := c.AddHost("host1")
	h2 := c.AddHost("host2")
	clientVM := h1.AddVM("client", metrics.TagClientApp)
	dnVM := h1.AddVM("dn1", metrics.TagDatanodeApp)

	nn := hdfs.NewNameNode(c.Env, hdfs.Config{BlockSize: 4 << 20}, c.Fabric)
	hdfs.StartDataNode(c.Env, nn, dnVM.Kernel)
	cl := hdfs.NewClient(c.Env, nn, clientVM.Kernel)
	mgr := core.NewManager(c, nn, core.Config{})
	mgr.MountDatanode("dn1")
	cl.SetBlockReader(mgr.EnableClient("client"))

	content := data.Pattern{Seed: 61, Size: 2 << 20}
	phase := 0
	c.Go("driver", func(p *sim.Proc) {
		if err := cl.WriteFile(p, "/f", content); err != nil {
			t.Error(err)
			return
		}
		phase = 1
	})
	if err := c.Env.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if phase != 1 {
		t.Fatal("write did not finish")
	}

	// Migrate the datanode VM to host2 (quiesced) and update vRead.
	c.MigrateVM("dn1", h2)
	mgr.DatanodeMigrated("dn1", "host1")
	if got, _ := c.Fabric.HostOf("dn1"); got != "host2" {
		t.Fatalf("fabric says dn1 on %q after migration", got)
	}
	if dnVM.Host != h2 || len(h1.VMs) != 1 || len(h2.VMs) != 1 {
		t.Fatal("cluster bookkeeping wrong after migration")
	}

	// The read is now remote and must go daemon-to-daemon over RDMA.
	c.Go("reader", func(p *sim.Proc) {
		r, err := cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		got, err := r.ReadFull(p, content.Size)
		if err != nil {
			t.Error(err)
			return
		}
		if !data.Equal(got, data.NewSlice(content)) {
			t.Error("post-migration read corrupted")
		}
		phase = 2
	})
	if err := c.Env.RunUntil(c.Env.Now() + 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if phase != 2 {
		t.Fatal("post-migration read did not finish")
	}
	if st := mgr.Daemon("client").Stats(); st.BytesRemote != content.Size {
		t.Fatalf("remote bytes after migration = %d, want %d", st.BytesRemote, content.Size)
	}
}

// TestShardedClusterTopology checks the sharded regime's construction
// invariants: per-host Envs and registries, LP registration, and
// rack-contiguous shard assignment.
func TestShardedClusterTopology(t *testing.T) {
	c := cluster.NewSharded(7, cluster.Params{}, 3)
	defer c.Close()
	hosts := c.BuildTopology(cluster.TopologySpec{Domains: 1, RacksPerDomain: 6, HostsPerRack: 2})
	if !c.Sharded() {
		t.Fatal("NewSharded cluster does not report sharded")
	}
	if c.Env != nil || c.Reg != nil {
		t.Fatal("sharded cluster must not expose a global Env/Registry")
	}
	seen := map[*sim.Env]bool{}
	for _, h := range hosts {
		if h.Env == nil || h.Reg == nil || h.LP == nil {
			t.Fatalf("host %s missing per-host Env/Reg/LP", h.Name)
		}
		if seen[h.Env] {
			t.Fatalf("host %s shares an Env with another host", h.Name)
		}
		seen[h.Env] = true
		if h.CPU.Env() != h.Env {
			t.Fatalf("host %s CPU runs on a foreign Env", h.Name)
		}
	}
	c.AssignRackShards()
	// 6 racks over 3 shards: racks [0,1]->0, [2,3]->1, [4,5]->2 — whole
	// racks only, contiguous blocks.
	for ri, rack := range c.Racks() {
		want := ri / 2
		for _, h := range c.RackHosts(rack) {
			if got := h.LP.Shard(); got != want {
				t.Fatalf("rack %s host %s pinned to shard %d, want %d", rack, h.Name, got, want)
			}
		}
	}

}

// TestShardedClusterRejectsVMs checks that a sharded cluster carries hosts
// only: AddVM panics and names the VM.
func TestShardedClusterRejectsVMs(t *testing.T) {
	c := cluster.NewSharded(7, cluster.Params{}, 2)
	defer c.Close()
	h := c.AddHost("h0")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("AddVM on a sharded cluster did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, `"client"`) {
			t.Fatalf("panic %q does not name the VM", msg)
		}
	}()
	h.AddVM("client", metrics.TagClientApp)
}

// TestShardedClusterCrossHostFrames runs a tiny sharded scenario end to end:
// a daemon on each host echoes frames, a client host fires requests at every
// other host, and the completion log must be byte-identical for K=1 and
// K=4.
func TestShardedClusterCrossHostFrames(t *testing.T) {
	run := func(k int) string {
		c := cluster.NewSharded(42, cluster.Params{}, k)
		defer c.Close()
		hosts := c.BuildTopology(cluster.TopologySpec{Domains: 1, RacksPerDomain: 2, HostsPerRack: 2})
		c.AssignRackShards()
		for _, h := range hosts {
			h := h
			c.Fabric.BindHostPort(h.Name, 7000, func(fr netsim.Frame) {
				// Echo half the payload back to the requester.
				h.NIC.SendToHost(fr.SrcHost, 7001, netsim.Frame{Payload: fr.Payload.Sub(0, fr.Payload.Len()/2)}, nil)
			})
		}
		log := ""
		client := hosts[0]
		c.Fabric.BindHostPort(client.Name, 7001, func(fr netsim.Frame) {
			log += fmt.Sprintf("%s echoed %dB @%v\n", fr.SrcHost, fr.Payload.Len(), client.Env.Now())
		})
		client.Env.Schedule(time.Microsecond, func() {
			for _, h := range hosts[1:] {
				client.NIC.SendToHost(h.Name, 7000, netsim.Frame{Payload: data.NewSlice(data.Zero(8192))}, nil)
			}
		})
		if err := c.RunUntil(5 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		return log
	}
	serial := run(1)
	if serial == "" {
		t.Fatal("no echoes completed")
	}
	if got := run(4); got != serial {
		t.Fatalf("K=4 diverges from K=1:\n--- K=1 ---\n%s--- K=4 ---\n%s", serial, got)
	}
}
