package core_test

import (
	"errors"
	"testing"
	"time"

	"vread/internal/cluster"
	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/hdfs"
	"vread/internal/metrics"
	"vread/internal/sim"
	"vread/internal/trace"
)

// newFaultFixture is newFixture with a fault plan armed across every layer:
// the plan is bound to the cluster env's RNG and armed on the cluster (its
// fabric and both host disks) and in the vRead config. Tests arm rules with plan.Set AFTER
// the write phase so faultpoint evaluation counts start at the read under
// test.
func newFaultFixture(t *testing.T, vcfg core.Config) (*fixture, *faults.Plan) {
	t.Helper()
	c := cluster.New(1, cluster.Params{})
	plan := faults.NewPlan(c.Env)
	vcfg.Faults = plan
	h1 := c.AddHost("host1")
	h2 := c.AddHost("host2")
	c.InjectFaults(plan)
	clientVM := h1.AddVM("client", metrics.TagClientApp)
	dn1VM := h1.AddVM("dn1", metrics.TagDatanodeApp)
	dn2VM := h2.AddVM("dn2", metrics.TagDatanodeApp)

	hcfg := hdfs.Config{BlockSize: 4 << 20}
	nn := hdfs.NewNameNode(c.Env, hcfg, c.Fabric)
	dn1 := hdfs.StartDataNode(c.Env, nn, dn1VM.Kernel)
	dn2 := hdfs.StartDataNode(c.Env, nn, dn2VM.Kernel)
	cl := hdfs.NewClient(c.Env, nn, clientVM.Kernel)

	mgr := core.NewManager(c, nn, vcfg)
	mgr.MountDatanode("dn1")
	mgr.MountDatanode("dn2")
	lib := mgr.EnableClient("client")
	cl.SetBlockReader(lib)
	return &fixture{c: c, nn: nn, dn1: dn1, dn2: dn2, cl: cl, mgr: mgr, lib: lib}, plan
}

// spanCount tallies closed spans/events by name.
func spanCount(tr *trace.Trace, name string) int {
	n := 0
	for _, s := range tr.Spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// assertSpansBalanced fails if any span was begun but never ended — the
// tracecharge discipline, checked dynamically on fault paths.
func assertSpansBalanced(t *testing.T, tr *trace.Trace) {
	t.Helper()
	for i, s := range tr.Spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s/%s) begun at %v never ended", i, s.Layer, s.Name, s.Start)
		}
	}
}

// TestRDMATeardownFallsBackToTCP is the acceptance scenario: an injected QP
// teardown mid-read must complete the read over the TCP fallback path (traced
// "wire" spans), downgrade the host pair once, leak no pending remote reads,
// and recover to RDMA after the downgrade window.
func TestRDMATeardownFallsBackToTCP(t *testing.T) {
	fx, plan := newFaultFixture(t, core.Config{Transport: core.TransportRDMA})
	defer fx.c.Close()
	fx.nn.SetPlacementPolicy(func(string, string, int) []string { return []string{"dn2"} })
	content := data.Pattern{Seed: 9, Size: 4 << 20}
	fx.write(t, "/f", content)

	// Evaluations count QP work requests: open req, open reply, read req,
	// then data chunks. AfterN=5 tears the QP down on the third chunk of
	// the first window — mid-stream, with bytes already delivered.
	plan.Set(faults.Rule{Point: faults.RDMAQPTeardown, Prob: 1, AfterN: 5, MaxFires: 1})

	tracer := trace.NewTracer(fx.c.Env, 1)
	var tr *trace.Trace
	fx.run(t, 240*time.Second, "reader", func(p *sim.Proc) {
		tr = tracer.Request("remote-read")
		vfd, ok := fx.lib.OpenPath(p, tr, "dn2", hdfs.BlockPath(1), "blk_1")
		if !ok {
			t.Error("vRead_open failed")
			return
		}
		got, err := vfd.ReadAt(p, tr, 0, content.Size)
		vfd.Close(p, tr)
		tr.Finish(content.Size)
		if err != nil {
			t.Errorf("read under QP teardown: %v", err)
			return
		}
		if !data.Equal(got, data.NewSlice(content)) {
			t.Error("bytes corrupted by QP teardown recovery")
		}
	})
	if fired := plan.Fired(faults.RDMAQPTeardown); fired != 1 {
		t.Fatalf("teardown fired %d times", fired)
	}
	if d := fx.mgr.Downgrades(); d != 1 {
		t.Fatalf("downgrades = %d, want 1", d)
	}
	if n := fx.mgr.PendingRemoteReads(); n != 0 {
		t.Fatalf("%d pending remote reads leaked", n)
	}
	st := fx.mgr.Daemon("client").Stats()
	if st.RemoteRetries == 0 {
		t.Fatal("no remote retries recorded")
	}
	assertSpansBalanced(t, tr)
	if spanCount(tr, "transport-downgrade") != 1 {
		t.Fatalf("transport-downgrade events = %d, want 1", spanCount(tr, "transport-downgrade"))
	}
	if spanCount(tr, "rdma") == 0 {
		t.Fatal("no rdma spans before the teardown")
	}
	// The recovery ran over TCP: host-terminated frames pace through the
	// NIC as traced "wire" spans — the paper's fallback path, visible.
	if spanCount(tr, "wire") == 0 {
		t.Fatal("no wire spans: TCP fallback did not carry the read")
	}

	// Recovery: past the downgrade window the pair probes RDMA again over a
	// fresh QP (the one-shot teardown is spent).
	var tr2 *trace.Trace
	fx.run(t, 240*time.Second, "reader2", func(p *sim.Proc) {
		p.Sleep(300 * time.Millisecond) // > downgradeWindow (250ms)
		tr2 = tracer.Request("recovered-read")
		vfd, ok := fx.lib.OpenPath(p, tr2, "dn2", hdfs.BlockPath(1), "blk_1")
		if !ok {
			t.Error("re-open failed after recovery")
			return
		}
		got, err := vfd.ReadAt(p, tr2, 0, content.Size)
		vfd.Close(p, tr2)
		tr2.Finish(content.Size)
		if err != nil || !data.Equal(got, data.NewSlice(content)) {
			t.Errorf("recovered read failed: %v", err)
		}
	})
	if spanCount(tr2, "rdma") == 0 {
		t.Fatal("recovered read did not return to RDMA")
	}
	if d := fx.mgr.Downgrades(); d != 1 {
		t.Fatalf("recovery caused extra downgrades: %d", d)
	}
}

// TestDroppedFinalChunkDoesNotLeakPendingReader is the finishRemote
// regression: dropping the LAST chunk of a remote window used to leave the
// daemon blocked forever on the chunk queue. With the bounded wait it must
// time out, retire the request, re-request the tail, and finish the read.
func TestDroppedFinalChunkDoesNotLeakPendingReader(t *testing.T) {
	fx, plan := newFaultFixture(t, core.Config{Transport: core.TransportTCP})
	defer fx.c.Close()
	fx.nn.SetPlacementPolicy(func(string, string, int) []string { return []string{"dn2"} })
	content := data.Pattern{Seed: 11, Size: 1 << 20}
	fx.write(t, "/f", content)

	// Host-terminated frame evaluations: open req (1), open reply (2),
	// read req (3), then 16 × 64 KiB chunks (4–19). AfterN=18 drops
	// exactly the final chunk of the only window.
	plan.Set(faults.Rule{Point: faults.NetFrameDrop, Prob: 1, AfterN: 18, MaxFires: 1})

	tracer := trace.NewTracer(fx.c.Env, 1)
	var tr *trace.Trace
	fx.run(t, 240*time.Second, "reader", func(p *sim.Proc) {
		tr = tracer.Request("dropped-tail-read")
		vfd, ok := fx.lib.OpenPath(p, tr, "dn2", hdfs.BlockPath(1), "blk_1")
		if !ok {
			t.Error("vRead_open failed")
			return
		}
		got, err := vfd.ReadAt(p, tr, 0, content.Size)
		vfd.Close(p, tr)
		tr.Finish(content.Size)
		if err != nil {
			t.Errorf("read with dropped final chunk: %v", err)
			return
		}
		if !data.Equal(got, data.NewSlice(content)) {
			t.Error("bytes corrupted by final-chunk retry")
		}
	})
	if fired := plan.Fired(faults.NetFrameDrop); fired != 1 {
		t.Fatalf("drop fired %d times (frame numbering changed?)", fired)
	}
	if n := fx.mgr.PendingRemoteReads(); n != 0 {
		t.Fatalf("%d pending remote reads leaked after dropped final chunk", n)
	}
	if st := fx.mgr.Daemon("client").Stats(); st.RemoteRetries != 1 {
		t.Fatalf("remote retries = %d, want 1", st.RemoteRetries)
	}
	assertSpansBalanced(t, tr)
}

// TestDaemonCrashFallsBackThenRecovers: a crash kills the in-flight read and
// invalidates the host's mount metadata; the client degrades to the vanilla
// socket path (correct bytes, served by the datanode process) until
// ResyncHost remounts, after which vRead serves again.
func TestDaemonCrashFallsBackThenRecovers(t *testing.T) {
	fx, plan := newFaultFixture(t, core.Config{})
	defer fx.c.Close()
	content := data.Pattern{Seed: 21, Size: 2 << 20}
	fx.write(t, "/f", content)

	// Ring-request evaluations: open (1), read (2). The open succeeds, the
	// read crashes the daemon.
	plan.Set(faults.Rule{Point: faults.DaemonCrash, Prob: 1, AfterN: 1, MaxFires: 1})

	fx.run(t, 240*time.Second, "reader", func(p *sim.Proc) {
		r, err := fx.cl.Open(p, "/f")
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
			t.Error("bytes corrupted across daemon crash")
		}
	})
	st := fx.mgr.Daemon("client").Stats()
	if st.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", st.Crashes)
	}
	if fx.lib.Stats().Retries == 0 {
		t.Fatal("libvread never retried the crashed read")
	}
	// The whole file was served by the vanilla fallback: the crash
	// invalidated the mounts, so every retry missed.
	if fx.dn1.ServedBytes() != content.Size {
		t.Fatalf("datanode streamed %d bytes, want full %d via fallback", fx.dn1.ServedBytes(), content.Size)
	}

	// Recovery: remount, re-read — vRead serves locally again.
	fx.mgr.ResyncHost("host1")
	fx.run(t, 240*time.Second, "reader2", func(p *sim.Proc) {
		r, err := fx.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		got, err := r.ReadFull(p, content.Size)
		if err != nil || !data.Equal(got, data.NewSlice(content)) {
			t.Errorf("post-resync read failed: %v", err)
		}
	})
	if st := fx.mgr.Daemon("client").Stats(); st.BytesLocal != content.Size {
		t.Fatalf("post-resync local bytes = %d, want %d", st.BytesLocal, content.Size)
	}
}

// TestTornLocalReadRetriesToCorrectBytes: a one-shot torn disk read ends the
// ring stream short; libvread's byte-count check turns it into a retry, never
// a truncated buffer.
func TestTornLocalReadRetriesToCorrectBytes(t *testing.T) {
	fx, plan := newFaultFixture(t, core.Config{})
	defer fx.c.Close()
	content := data.Pattern{Seed: 31, Size: 2 << 20}
	fx.write(t, "/f", content)
	plan.Set(faults.Rule{Point: faults.DiskReadTorn, Prob: 1, MaxFires: 1})

	fx.run(t, 240*time.Second, "reader", func(p *sim.Proc) {
		r, err := fx.cl.Open(p, "/f")
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
			t.Error("torn read leaked truncated bytes")
		}
	})
	if fx.lib.Stats().Retries != 1 {
		t.Fatalf("lib retries = %d, want 1", fx.lib.Stats().Retries)
	}
	if fx.dn1.ServedBytes() != 0 {
		t.Fatal("torn read fell back to the socket path instead of retrying")
	}
}

// TestLostDoorbellsOnlyAddLatency: with every doorbell lost, reads still
// complete correctly — the guest watchdog bounds the damage to latency.
func TestLostDoorbellsOnlyAddLatency(t *testing.T) {
	fx, plan := newFaultFixture(t, core.Config{})
	defer fx.c.Close()
	content := data.Pattern{Seed: 41, Size: 1 << 20}
	fx.write(t, "/f", content)
	plan.Set(faults.Rule{Point: faults.RingDoorbellLost, Prob: 1})

	fx.run(t, 240*time.Second, "reader", func(p *sim.Proc) {
		r, err := fx.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		got, err := r.ReadFull(p, content.Size)
		if err != nil || !data.Equal(got, data.NewSlice(content)) {
			t.Errorf("read under lost doorbells: %v", err)
		}
	})
	if st := fx.mgr.Daemon("client").Stats(); st.DoorbellsLost == 0 {
		t.Fatal("no lost doorbells recorded")
	}
	if fx.dn1.ServedBytes() != 0 {
		t.Fatal("lost doorbells caused a fallback")
	}
}

// TestExhaustedRetriesSurfaceTypedError: when the daemon fails every attempt,
// libvread reports ErrDaemonFailed (a typed error, the no-silent-corruption
// contract) and every trace span still closes.
func TestExhaustedRetriesSurfaceTypedError(t *testing.T) {
	fx, plan := newFaultFixture(t, core.Config{})
	defer fx.c.Close()
	content := data.Pattern{Seed: 51, Size: 1 << 20}
	fx.write(t, "/f", content)
	// Crash every ring request after the open: all retries fail.
	plan.Set(faults.Rule{Point: faults.DaemonCrash, Prob: 1, AfterN: 1})

	tracer := trace.NewTracer(fx.c.Env, 1)
	var tr *trace.Trace
	fx.run(t, 240*time.Second, "reader", func(p *sim.Proc) {
		tr = tracer.Request("doomed-read")
		vfd, ok := fx.lib.OpenPath(p, tr, "dn1", hdfs.BlockPath(1), "blk_1")
		if !ok {
			t.Error("open failed before the fault window")
			return
		}
		_, err := vfd.ReadAt(p, tr, 0, content.Size)
		vfd.Close(p, tr)
		tr.Finish(0)
		if !errors.Is(err, core.ErrDaemonFailed) {
			t.Errorf("err = %v, want ErrDaemonFailed", err)
		}
	})
	if fx.lib.Stats().Retries == 0 {
		t.Fatal("no retries before surfacing the error")
	}
	assertSpansBalanced(t, tr)
	if spanCount(tr, "read-retry") == 0 {
		t.Fatal("no read-retry marks on the trace")
	}
}
