package netsim

import (
	"testing"
	"time"

	"vread/internal/cpusched"
	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/metrics"
	"vread/internal/sim"
	"vread/internal/sim/shard"
)

const ghz = int64(2_000_000_000)

type fixture struct {
	env  *sim.Env
	reg  *metrics.Registry
	fab  *Fabric
	cpu1 *cpusched.CPU
	cpu2 *cpusched.CPU
	nic1 *NIC
	nic2 *NIC
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	env := sim.NewEnv(1)
	reg := metrics.NewRegistry()
	fab := NewFabric(env, Config{})
	cpu1 := cpusched.New(env, reg, 4, ghz, cpusched.Config{})
	cpu2 := cpusched.New(env, reg, 4, ghz, cpusched.Config{})
	nic1 := fab.AddHost("host1", cpu1.NewThread("softirq1", "host1"))
	nic2 := fab.AddHost("host2", cpu2.NewThread("softirq2", "host2"))
	return &fixture{env: env, reg: reg, fab: fab, cpu1: cpu1, cpu2: cpu2, nic1: nic1, nic2: nic2}
}

type captureEP struct {
	frames []Frame
	at     []time.Duration
	env    *sim.Env
}

func (c *captureEP) DeliverFromWire(fr Frame) {
	c.frames = append(c.frames, fr)
	c.at = append(c.at, c.env.Now())
}

func TestSendToVMDelivers(t *testing.T) {
	fx := newFixture(t)
	ep := &captureEP{env: fx.env}
	fx.fab.RegisterVM("vm2", "host2", ep)

	payload := data.NewSlice(data.Bytes("hello over the wire"))
	fx.nic1.SendToVM(Frame{DstVM: "vm2", Payload: payload}, nil)
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ep.frames) != 1 {
		t.Fatalf("delivered %d frames", len(ep.frames))
	}
	if got := string(ep.frames[0].Payload.Bytes()); got != "hello over the wire" {
		t.Fatalf("payload = %q", got)
	}
	if ep.frames[0].SrcHost != "host1" || ep.frames[0].DstHost != "host2" {
		t.Fatalf("frame routing = %+v", ep.frames[0])
	}
	// Arrival no earlier than wire latency, and softirq cycles charged.
	if ep.at[0] < 20*time.Microsecond {
		t.Fatalf("arrived at %v, before wire latency", ep.at[0])
	}
	if fx.reg.Cycles("host2", metrics.TagVhostNet) == 0 {
		t.Fatal("no softirq cycles charged on receiving host")
	}
}

func TestNICPacingSerializesFrames(t *testing.T) {
	fx := newFixture(t)
	ep := &captureEP{env: fx.env}
	fx.fab.RegisterVM("vm2", "host2", ep)

	// Two 1.25MB frames at 10Gbps = 1ms wire time each; FIFO pacing means
	// the second arrives ~1ms after the first.
	payload := data.NewSlice(data.Pattern{Seed: 1, Size: 1_250_000})
	fx.nic1.SendToVM(Frame{DstVM: "vm2", Payload: payload}, nil)
	fx.nic1.SendToVM(Frame{DstVM: "vm2", Payload: payload}, nil)
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ep.at) != 2 {
		t.Fatalf("delivered %d frames", len(ep.at))
	}
	gap := ep.at[1] - ep.at[0]
	if gap < 900*time.Microsecond || gap > 1100*time.Microsecond {
		t.Fatalf("inter-arrival gap = %v, want ~1ms", gap)
	}
	if fx.nic1.TxFrames() != 2 {
		t.Fatalf("tx stats = %d frames", fx.nic1.TxFrames())
	}
}

func TestOnSentFiresAtTransmitComplete(t *testing.T) {
	fx := newFixture(t)
	ep := &captureEP{env: fx.env}
	fx.fab.RegisterVM("vm2", "host2", ep)

	var sentAt time.Duration
	payload := data.NewSlice(data.Pattern{Seed: 1, Size: 1_250_000}) // 1ms at 10Gbps
	fx.nic1.SendToVM(Frame{DstVM: "vm2", Payload: payload}, func() { sentAt = fx.env.Now() })
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if sentAt < 990*time.Microsecond || sentAt > 1010*time.Microsecond {
		t.Fatalf("onSent at %v, want ~1ms", sentAt)
	}
	// Delivery is after transmit + latency.
	if ep.at[0] <= sentAt {
		t.Fatalf("delivery %v not after transmit-complete %v", ep.at[0], sentAt)
	}
}

func TestSendToHostHandler(t *testing.T) {
	fx := newFixture(t)
	var got []Frame
	fx.fab.BindHostPort("host2", 9999, func(fr Frame) { got = append(got, fr) })
	fx.nic1.SendToHost("host2", 9999, Frame{Payload: data.NewSlice(data.Bytes("daemon-msg"))}, nil)
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Payload.Bytes()) != "daemon-msg" {
		t.Fatalf("host frames = %v", got)
	}
	if fx.reg.Cycles("host2", metrics.TagVReadNet) == 0 {
		t.Fatal("no vread-net cycles charged for host-terminated traffic")
	}
}

func TestVMRegistryAndMigration(t *testing.T) {
	fx := newFixture(t)
	ep := &captureEP{env: fx.env}
	fx.fab.RegisterVM("dn1", "host1", ep)
	if h, ok := fx.fab.HostOf("dn1"); !ok || h != "host1" {
		t.Fatalf("HostOf = %q,%v", h, ok)
	}
	// Migrate: unregister then register on the other host.
	fx.fab.UnregisterVM("dn1")
	if _, ok := fx.fab.HostOf("dn1"); ok {
		t.Fatal("VM still registered after unregister")
	}
	fx.fab.RegisterVM("dn1", "host2", ep)
	if h, _ := fx.fab.HostOf("dn1"); h != "host2" {
		t.Fatalf("HostOf after migration = %q", h)
	}
}

func TestRDMATransfer(t *testing.T) {
	fx := newFixture(t)
	daemon1 := fx.cpu1.NewThread("daemon1", "vread-daemon-1")
	daemon2 := fx.cpu2.NewThread("daemon2", "vread-daemon-2")
	var atB []Frame
	var atA []Frame
	qp := fx.fab.NewQP(
		"host1", daemon1, func(fr Frame) { atA = append(atA, fr) },
		"host2", daemon2, func(fr Frame) { atB = append(atB, fr) },
	)
	payload := data.NewSlice(data.Pattern{Seed: 3, Size: 1 << 20})
	qp.PostFrom("host1", Frame{Payload: payload}, nil)
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(atB) != 1 || len(atA) != 0 {
		t.Fatalf("delivery: A=%d B=%d", len(atA), len(atB))
	}
	if !data.Equal(atB[0].Payload, payload) {
		t.Fatal("payload corrupted through QP")
	}
	// Both sides paid small RDMA CPU; no softirq/vhost involvement.
	if fx.reg.Cycles("vread-daemon-1", metrics.TagRDMA) == 0 {
		t.Fatal("poster paid no RDMA cycles")
	}
	if fx.reg.Cycles("vread-daemon-2", metrics.TagRDMA) == 0 {
		t.Fatal("completer paid no RDMA cycles")
	}
	if fx.reg.Cycles("host2", metrics.TagVhostNet) != 0 {
		t.Fatal("RDMA traffic went through softirq")
	}
}

func TestRDMACheaperThanTCPPath(t *testing.T) {
	// The CPU charged for moving a payload over RDMA must be far below the
	// softirq cost of the same payload as host-terminated TCP frames —
	// Figure 7 vs Figure 8's premise.
	fx := newFixture(t)
	daemon1 := fx.cpu1.NewThread("d1", "d1")
	daemon2 := fx.cpu2.NewThread("d2", "d2")
	qp := fx.fab.NewQP("host1", daemon1, nil, "host2", daemon2, func(Frame) {})
	fx.fab.BindHostPort("host2", 7000, func(Frame) {})

	const segs = 16
	payload := data.NewSlice(data.Pattern{Seed: 4, Size: 64 << 10})
	for i := 0; i < segs; i++ {
		qp.PostFrom("host1", Frame{Payload: payload}, nil)
		fx.nic1.SendToHost("host2", 7000, Frame{Payload: payload}, nil)
	}
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	rdma := fx.reg.Cycles("d1", metrics.TagRDMA) + fx.reg.Cycles("d2", metrics.TagRDMA)
	tcp := fx.reg.Cycles("host2", metrics.TagVReadNet)
	if rdma >= tcp {
		t.Fatalf("RDMA cycles %d not below TCP softirq cycles %d", rdma, tcp)
	}
}

func TestBidirectionalQP(t *testing.T) {
	fx := newFixture(t)
	d1 := fx.cpu1.NewThread("d1", "d1")
	d2 := fx.cpu2.NewThread("d2", "d2")
	var atA, atB int
	qp := fx.fab.NewQP("host1", d1, func(Frame) { atA++ }, "host2", d2, func(Frame) { atB++ })
	pl := data.NewSlice(data.Bytes("x"))
	qp.PostFrom("host1", Frame{Payload: pl}, nil)
	qp.PostFrom("host2", Frame{Payload: pl}, nil)
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if atA != 1 || atB != 1 {
		t.Fatalf("deliveries A=%d B=%d", atA, atB)
	}
}

func TestUnknownDestinationPanics(t *testing.T) {
	fx := newFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown VM")
		}
	}()
	fx.nic1.SendToVM(Frame{DstVM: "ghost", Payload: data.NewSlice(data.Bytes("x"))}, nil)
}

func TestHostFrameDropFault(t *testing.T) {
	fx := newFixture(t)
	plan := faults.NewPlan(fx.env)
	plan.Set(faults.Rule{Point: faults.NetFrameDrop, Prob: 1, MaxFires: 1})
	fx.fab.InjectFaults(plan)
	var got []Frame
	fx.fab.BindHostPort("host2", 9999, func(fr Frame) { got = append(got, fr) })
	pl := data.NewSlice(data.Bytes("doomed"))
	sentAt := time.Duration(-1)
	fx.nic1.SendToHost("host2", 9999, Frame{Payload: pl}, func() { sentAt = fx.env.Now() })
	fx.nic1.SendToHost("host2", 9999, Frame{Payload: data.NewSlice(data.Bytes("survivor"))}, nil)
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Payload.Bytes()) != "survivor" {
		t.Fatalf("delivered frames = %v, want only the second", got)
	}
	if sentAt < 0 {
		t.Fatal("onSent never fired for the dropped frame")
	}
	if fx.env.Pending() != 0 {
		t.Fatalf("%d events still pending after drop", fx.env.Pending())
	}
}

func TestGuestFramesNeverDropped(t *testing.T) {
	// net.frame.drop must not apply to inter-VM traffic: guest TCP has no
	// retransmit model, so a drop there would wedge vanilla HDFS forever.
	fx := newFixture(t)
	plan := faults.NewPlan(fx.env)
	plan.Set(faults.Rule{Point: faults.NetFrameDrop, Prob: 1})
	fx.fab.InjectFaults(plan)
	ep := &captureEP{env: fx.env}
	fx.fab.RegisterVM("vm2", "host2", ep)
	fx.nic1.SendToVM(Frame{DstVM: "vm2", Payload: data.NewSlice(data.Bytes("x"))}, nil)
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ep.frames) != 1 {
		t.Fatalf("guest frame dropped: delivered %d", len(ep.frames))
	}
}

func TestFrameDelayFault(t *testing.T) {
	fx := newFixture(t)
	plan := faults.NewPlan(fx.env)
	plan.Set(faults.Rule{Point: faults.NetFrameDelay, Prob: 1, Delay: 3 * time.Millisecond})
	fx.fab.InjectFaults(plan)
	ep := &captureEP{env: fx.env}
	fx.fab.RegisterVM("vm2", "host2", ep)
	fx.nic1.SendToVM(Frame{DstVM: "vm2", Payload: data.NewSlice(data.Bytes("x"))}, nil)
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ep.frames) != 1 {
		t.Fatalf("delivered %d frames", len(ep.frames))
	}
	if ep.at[0] < 3*time.Millisecond {
		t.Fatalf("arrived at %v, before injected delay", ep.at[0])
	}
}

func TestQPTeardownFault(t *testing.T) {
	fx := newFixture(t)
	plan := faults.NewPlan(fx.env)
	plan.Set(faults.Rule{Point: faults.RDMAQPTeardown, Prob: 1, AfterN: 1, MaxFires: 1})
	fx.fab.InjectFaults(plan)
	d1 := fx.cpu1.NewThread("d1", "d1")
	d2 := fx.cpu2.NewThread("d2", "d2")
	var atB int
	qp := fx.fab.NewQP("host1", d1, nil, "host2", d2, func(Frame) { atB++ })
	pl := data.NewSlice(data.Bytes("x"))
	var sent int
	qp.PostFrom("host1", Frame{Payload: pl}, func() { sent++ }) // delivered
	qp.PostFrom("host1", Frame{Payload: pl}, func() { sent++ }) // tears down, dropped
	qp.PostFrom("host1", Frame{Payload: pl}, func() { sent++ }) // QP stays broken
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if atB != 1 {
		t.Fatalf("delivered %d work requests, want 1 (pre-teardown only)", atB)
	}
	if !qp.broken {
		t.Fatal("QP not marked broken")
	}
	if sent != 3 {
		t.Fatalf("onSent fired %d times, want 3 (posting always completes locally)", sent)
	}
	if fx.env.Pending() != 0 {
		t.Fatalf("%d events pending after teardown", fx.env.Pending())
	}
}

// TestShardedFabricCrossEnvDelivery wires two hosts on separate Envs to a
// shard coordinator and checks a host-terminated frame crosses through the
// interconnect: receive softirq and handler run on the destination Env, at
// the same virtual instant a single-env fabric would deliver, and with
// shard-count-identical results.
func TestShardedFabricCrossEnvDelivery(t *testing.T) {
	run := func(k int) (arrivedAt time.Duration, payload string) {
		coord := shard.New(shard.Config{Shards: k, Lookahead: Config{}.Lookahead()})
		reg := metrics.NewRegistry()
		envA, envB := sim.NewEnv(1), sim.NewEnv(2)
		lpA, lpB := coord.AddLP(envA), coord.AddLP(envB)
		lps := map[string]*shard.LP{"hostA": lpA, "hostB": lpB}

		fab := NewFabric(nil, Config{})
		fab.SetInterconnect(func(src, dst string, delay time.Duration, deliver func()) {
			lps[src].Send(lps[dst], delay, deliver)
		})
		cpuA := cpusched.New(envA, reg, 2, ghz, cpusched.Config{})
		cpuB := cpusched.New(envB, reg, 2, ghz, cpusched.Config{})
		nicA := fab.AddHostOn("hostA", cpuA.NewThread("softirqA", "hostA"), envA)
		fab.AddHostOn("hostB", cpuB.NewThread("softirqB", "hostB"), envB)

		fab.BindHostPort("hostB", 9000, func(fr Frame) {
			arrivedAt = envB.Now()
			payload = string(fr.Payload.Bytes())
		})
		envA.Schedule(time.Microsecond, func() {
			nicA.SendToHost("hostB", 9000, Frame{Payload: data.NewSlice(data.Bytes("cross-shard"))}, nil)
		})
		if err := coord.RunUntil(time.Millisecond); err != nil {
			t.Fatal(err)
		}
		return arrivedAt, payload
	}
	at1, pay1 := run(1)
	if pay1 != "cross-shard" {
		t.Fatalf("payload = %q", pay1)
	}
	if at1 <= 21*time.Microsecond { // send instant + wire latency + softirq
		t.Fatalf("handler ran at %v, before wire latency could have elapsed", at1)
	}
	at2, pay2 := run(2)
	if at2 != at1 || pay2 != pay1 {
		t.Fatalf("sharded run diverges: (%v, %q) vs (%v, %q)", at2, pay2, at1, pay1)
	}
}

// TestShardedFabricRejectsCrossEnvQP pins the guard: RDMA endpoints must
// share an Env until QP state is split per side.
func TestShardedFabricRejectsCrossEnvQP(t *testing.T) {
	reg := metrics.NewRegistry()
	envA, envB := sim.NewEnv(1), sim.NewEnv(2)
	fab := NewFabric(nil, Config{})
	cpuA := cpusched.New(envA, reg, 2, ghz, cpusched.Config{})
	cpuB := cpusched.New(envB, reg, 2, ghz, cpusched.Config{})
	thA := cpuA.NewThread("a", "hostA")
	thB := cpuB.NewThread("b", "hostB")
	fab.AddHostOn("hostA", thA, envA)
	fab.AddHostOn("hostB", thB, envB)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-Env QP did not panic")
		}
	}()
	fab.NewQP("hostA", thA, nil, "hostB", thB, nil)
}

// TestLookaheadIsMinLatency pins the lookahead derivation.
func TestLookaheadIsMinLatency(t *testing.T) {
	if got := (Config{}).Lookahead(); got != 8*time.Microsecond {
		t.Fatalf("default Lookahead = %v, want 8µs (RDMA latency)", got)
	}
	cfg := Config{Latency: 5 * time.Microsecond, RDMALatency: 9 * time.Microsecond}
	if got := cfg.Lookahead(); got != 5*time.Microsecond {
		t.Fatalf("Lookahead = %v, want the wire latency 5µs", got)
	}
}
