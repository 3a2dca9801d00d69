package vread_test

import (
	"fmt"
	"testing"
	"time"

	"vread"
	"vread/internal/data"
	"vread/internal/faults/chaostest"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// TestSoakChurn drives the full stack through sustained churn: concurrent
// writers and readers over HDFS with vRead enabled, file deletions,
// background hogs, and a datanode live migration in the middle — then
// checks the invariants that must survive all of it:
//
//   - every read returned exactly the written bytes;
//   - no vRead open ever failed after its block's refresh landed
//     (fallbacks only from the deliberately unmounted datanode);
//   - no simulated processes leaked beyond the long-lived service loops;
//   - the accounting registry conserved cycles (nothing negative, totals
//     grow monotonically).
func TestSoakChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	c := vread.NewCluster(99, vread.ClusterParams{})
	defer c.Close()
	h1 := c.AddHost("host1")
	h2 := c.AddHost("host2")
	clientVM := h1.AddVM("client", metrics.TagClientApp)
	dn1VM := h1.AddVM("dn1", metrics.TagDatanodeApp)
	dn2VM := h2.AddVM("dn2", metrics.TagDatanodeApp)
	for i := 0; i < 2; i++ {
		hog := h2.AddVM(fmt.Sprintf("hog%d", i), metrics.TagClientApp)
		vread.StartLookbusy(hog, 0.85, 0)
	}

	nn := vread.NewNameNode(c.Env, vread.HDFSConfig{BlockSize: 4 << 20}, c.Fabric)
	vread.StartDataNode(c.Env, nn, dn1VM.Kernel)
	vread.StartDataNode(c.Env, nn, dn2VM.Kernel)
	client := vread.NewDFSClient(c.Env, nn, clientVM.Kernel)
	mgr := vread.NewVReadManager(c, nn, vread.VReadConfig{})
	mgr.MountDatanode("dn1")
	mgr.MountDatanode("dn2")
	client.SetBlockReader(mgr.EnableClient("client"))

	baseLive := c.Env.Live() // service loops that legitimately persist

	const generations = 6
	const filesPerGen = 3
	verified := 0
	fail := func(format string, args ...interface{}) {
		t.Errorf(format, args...)
	}
	done := false
	c.Go("churn", func(p *sim.Proc) {
		for gen := 0; gen < generations; gen++ {
			// Write a generation of files with alternating placement.
			contents := make([]data.Pattern, filesPerGen)
			for i := range contents {
				contents[i] = data.Pattern{Seed: uint64(gen*100 + i), Size: int64(1+i) << 20}
				path := fmt.Sprintf("/soak/g%d/f%d", gen, i)
				if err := client.WriteFile(p, path, contents[i]); err != nil {
					fail("gen %d write %d: %v", gen, i, err)
					return
				}
			}
			// Read them all back, sequential and positional, and verify.
			for i := range contents {
				path := fmt.Sprintf("/soak/g%d/f%d", gen, i)
				r, err := client.Open(p, path)
				if err != nil {
					fail("gen %d open %d: %v", gen, i, err)
					return
				}
				got, err := r.ReadFull(p, contents[i].Size)
				if err != nil {
					r.Close(p)
					fail("gen %d read %d: %v", gen, i, err)
					return
				}
				if !data.Equal(got, data.NewSlice(contents[i])) {
					r.Close(p)
					fail("gen %d file %d corrupted", gen, i)
					return
				}
				if s, err := r.ReadAt(p, contents[i].Size/2, 4096); err != nil ||
					!data.Equal(s, data.NewSlice(contents[i]).Sub(contents[i].Size/2, 4096)) {
					r.Close(p)
					fail("gen %d pread %d failed: %v", gen, i, err)
					return
				}
				r.Close(p)
				verified++
			}
			// Delete the previous generation (dentry refresh churn).
			if gen > 0 {
				for i := 0; i < filesPerGen; i++ {
					if err := client.DeleteFile(p, fmt.Sprintf("/soak/g%d/f%d", gen-1, i)); err != nil {
						fail("gen %d delete: %v", gen, err)
						return
					}
				}
			}
			// Mid-soak: live-migrate dn1 away and back.
			if gen == 2 {
				c.MigrateVM("dn1", h2)
				mgr.DatanodeMigrated("dn1", "host1")
			}
			if gen == 4 {
				c.MigrateVM("dn1", h1)
				mgr.DatanodeMigrated("dn1", "host2")
			}
		}
		done = true
	})
	if err := c.Env.RunUntil(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("churn did not finish within the virtual deadline")
	}
	if verified != generations*filesPerGen {
		t.Fatalf("verified %d of %d files", verified, generations*filesPerGen)
	}
	st := mgr.Daemon("client").Stats()
	if st.OpenMisses != 0 {
		t.Fatalf("unexpected vRead fallbacks during soak: %d", st.OpenMisses)
	}
	if st.BytesLocal+st.BytesRemote == 0 {
		t.Fatal("vRead served nothing during soak")
	}
	// Process hygiene: only the long-lived service loops (+hog pair and
	// migration-recreated device loops) may remain.
	if live := c.Env.Live(); live > baseLive+12 {
		t.Fatalf("leaked processes: %d live vs %d at start", live, baseLive)
	}
	if len(c.Reg.Entities()) == 0 {
		t.Fatal("registry conserved nothing")
	}
}

// TestSoakChaosStorm is the soak test's chaos sibling: a long random read
// storm with every faultpoint armed at once, run through the chaostest
// harness so all of its invariants apply (correct bytes or typed error,
// balanced spans, drained event loop, no leaked remote reads) — then run
// again from the same seed to assert the whole storm replays byte-
// identically, fault schedule included.
func TestSoakChaosStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	spec, err := vread.ParseFaultSpec(
		"disk.read.slow:p=0.15,delay=1ms;disk.read.error:p=0.02;disk.read.torn:p=0.04;" +
			"net.frame.drop:p=0.02;net.frame.delay:p=0.15,delay=500us;" +
			"rdma.qp.teardown:p=0.015;ring.doorbell.lost:p=0.15;ring.stall:p=0.15,delay=200us;" +
			"daemon.crash:p=0.015")
	if err != nil {
		t.Fatal(err)
	}
	run := func() chaostest.Result {
		return chaostest.Run(chaostest.Options{
			Seed:     2025,
			Spec:     spec,
			Files:    4,
			FileSize: 2 << 20,
			Reads:    120,
			Deadline: 8 * time.Hour,
		})
	}
	res := run()
	for _, v := range res.Violations {
		t.Error(v)
	}
	if res.OKs == 0 {
		t.Fatal("no read survived the chaos soak")
	}
	if res.DistinctFired() < 6 {
		t.Errorf("only %d distinct faultpoints fired during the soak: %+v",
			res.DistinctFired(), res.FaultCounts)
	}
	if again := run(); again.Fingerprint != res.Fingerprint {
		t.Errorf("chaos soak is not reproducible: %016x vs %016x",
			res.Fingerprint, again.Fingerprint)
	}
	t.Logf("chaos soak: %d ok / %d typed errors / %d open misses; %d faultpoints fired",
		res.OKs, res.TypedErrors, res.OpenMisses, res.DistinctFired())
}

// TestSoakHostileStorm soaks the ring trust boundary: a seed × plan matrix of
// long hostile-guest storms — forged descriptors, stale keys, doorbell
// storms, held slots, live migrations, and all of them at once — with the
// per-VM isolation invariant on top of the usual four: the victim cohort
// must read perfectly no matter what the hostile guest does. Every new ring
// faultpoint must fire somewhere in the matrix, and every cell must replay
// byte-identically from its seed.
func TestSoakHostileStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("hostile soak skipped in -short mode")
	}
	plans := []struct {
		name string
		spec string
	}{
		{"forgery", "ring.badslot:p=0.25;ring.stalekey:p=0.25"},
		{"pressure", "ring.doorbellstorm:p=0.2;ring.slotheld:p=0.25,delay=300us"},
		{"migrate", "mount.migrate:p=0.15"},
		{"everything", "ring.badslot:p=0.15;ring.stalekey:p=0.15;ring.doorbellstorm:p=0.1;" +
			"ring.slotheld:p=0.1,delay=200us;mount.migrate:p=0.1"},
	}
	seeds := []int64{2025, 909}
	fired := make(map[string]bool)
	for _, plan := range plans {
		spec, err := vread.ParseFaultSpec(plan.spec)
		if err != nil {
			t.Fatalf("plan %s: %v", plan.name, err)
		}
		for _, seed := range seeds {
			o := chaostest.HostileOptions{
				Seed: seed, Spec: spec, Reads: 60, Deadline: 8 * time.Hour,
			}
			res := chaostest.RunHostile(o)
			for _, v := range res.Violations {
				t.Errorf("plan %s seed %d: %s", plan.name, seed, v)
			}
			if res.VictimOKs == 0 {
				t.Errorf("plan %s seed %d: no victim read survived", plan.name, seed)
			}
			for _, pc := range res.FaultCounts {
				if pc.Fires > 0 {
					fired[pc.Point] = true
				}
			}
			if again := chaostest.RunHostile(o); again.Fingerprint != res.Fingerprint {
				t.Errorf("plan %s seed %d does not replay: %016x vs %016x",
					plan.name, seed, res.Fingerprint, again.Fingerprint)
			}
		}
	}
	for _, point := range []string{
		"ring.badslot", "ring.stalekey", "ring.doorbellstorm", "ring.slotheld", "mount.migrate",
	} {
		if !fired[point] {
			t.Errorf("faultpoint %s never fired across the hostile soak matrix", point)
		}
	}
}

// TestSoakMigrationStorm soaks live mount migration under concurrent load:
// the blackout sweep at greater depths and storm lengths than the smoke
// config. RunMigrationSweep errors on any lost, failed, or corrupted read, so
// a nil error IS the durability assertion; on top of it the blackout must be
// finite and the rows must replay byte-identically.
func TestSoakMigrationStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("migration soak skipped in -short mode")
	}
	mc := vread.MigrationConfig{
		Depths:         []int{1, 4, 8, 12},
		ReadsPerStream: 20,
	}
	rows, err := vread.RunMigrationSweep(vread.Options{Seed: 2025}, mc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Blackout <= 0 || r.Blackout > time.Minute {
			t.Errorf("depth %d: blackout %v out of range", r.Depth, r.Blackout)
		}
		if r.Captured == 0 {
			t.Errorf("depth %d: no in-flight descriptor rode through the cutover", r.Depth)
		}
		t.Logf("depth %2d: blackout %v, %d captured, worst in/out %v/%v",
			r.Depth, r.Blackout, r.Captured, r.WorstIn, r.WorstOut)
	}
	again, err := vread.RunMigrationSweep(vread.Options{Seed: 2025}, mc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != again[i] {
			t.Errorf("row %d does not replay: %+v vs %+v", i, rows[i], again[i])
		}
	}
}
