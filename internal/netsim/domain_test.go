package netsim

import (
	"testing"
	"time"

	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/sim"
)

// locate puts host1 and host2 into distinct racks and fault domains.
func locate(fx *fixture) {
	fx.fab.SetHostLocation("host1", "r0", "d0")
	fx.fab.SetHostLocation("host2", "r1", "d1")
}

// TestHostDownDropsFrames: a dark host exchanges nothing, in either
// direction, but onSent still fires (the sender's NIC did its work).
func TestHostDownDropsFrames(t *testing.T) {
	fx := newFixture(t)
	var got int
	fx.fab.BindHostPort("host2", 9999, func(Frame) { got++ })
	fx.fab.SetHostDown("host2")
	sent := false
	fx.nic1.SendToHost("host2", 9999, Frame{Payload: data.NewSlice(data.Bytes("x"))}, func() { sent = true })
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatal("frame delivered to a dark host")
	}
	if !sent {
		t.Fatal("onSent never fired for the dropped frame")
	}
	if !fx.fab.HostDown("host2") || fx.fab.HostDown("host1") {
		t.Fatal("down bookkeeping wrong")
	}
}

// TestDomainPartitionFault: a fired domain.partition severs inter-domain
// host frames for the delay window, then heals lazily.
func TestDomainPartitionFault(t *testing.T) {
	fx := newFixture(t)
	locate(fx)
	plan := faults.NewPlan(fx.env)
	plan.Set(faults.Rule{Point: faults.DomainPartition, Prob: 1, MaxFires: 1, Delay: 2 * time.Millisecond})
	fx.fab.InjectFaults(plan)
	var at []time.Duration
	fx.fab.BindHostPort("host2", 9999, func(Frame) { at = append(at, fx.env.Now()) })

	pl := data.NewSlice(data.Bytes("x"))
	fx.nic1.SendToHost("host2", 9999, Frame{Payload: pl}, nil) // fires: dropped, window opens
	fx.nic1.SendToHost("host2", 9999, Frame{Payload: pl}, nil) // inside window: dropped
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 0 {
		t.Fatalf("%d frames crossed an active partition", len(at))
	}
	if !fx.fab.PartitionActive("d0", "d1") || !fx.fab.PartitionActive("d1", "d0") {
		t.Fatal("partition not active (or not symmetric)")
	}

	// After the window expires the link heals with no timer event: advance
	// the clock past it with an unrelated sleeper.
	fx.env.Go("later", func(p *sim.Proc) { p.Sleep(3 * time.Millisecond) })
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if fx.fab.PartitionActive("d0", "d1") {
		t.Fatal("partition still active after its window")
	}
	fx.nic1.SendToHost("host2", 9999, Frame{Payload: pl}, nil)
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 1 {
		t.Fatalf("healed link delivered %d frames, want 1", len(at))
	}
}

// TestDomainPartitionSparesIntraDomain: co-domain traffic never evaluates
// the partition point.
func TestDomainPartitionSparesIntraDomain(t *testing.T) {
	fx := newFixture(t)
	fx.fab.SetHostLocation("host1", "r0", "d0")
	fx.fab.SetHostLocation("host2", "r1", "d0") // same domain, different rack
	plan := faults.NewPlan(fx.env)
	plan.Set(faults.Rule{Point: faults.DomainPartition, Prob: 1})
	fx.fab.InjectFaults(plan)
	var got int
	fx.fab.BindHostPort("host2", 9999, func(Frame) { got++ })
	fx.nic1.SendToHost("host2", 9999, Frame{Payload: data.NewSlice(data.Bytes("x"))}, nil)
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatal("intra-domain frame was partitioned")
	}
	for _, pc := range plan.Counts() {
		if pc.Point == faults.DomainPartition && pc.Evals != 0 {
			t.Fatalf("domain.partition evaluated %d times for intra-domain traffic", pc.Evals)
		}
	}
}

// TestDomainPartitionSeversRDMA: the partition applies to RDMA work
// requests too — the QP itself stays healthy and carries traffic after the
// window.
func TestDomainPartitionSeversRDMA(t *testing.T) {
	fx := newFixture(t)
	locate(fx)
	plan := faults.NewPlan(fx.env)
	plan.Set(faults.Rule{Point: faults.DomainPartition, Prob: 1, MaxFires: 1, Delay: time.Millisecond})
	fx.fab.InjectFaults(plan)
	d1 := fx.cpu1.NewThread("d1", "d1")
	d2 := fx.cpu2.NewThread("d2", "d2")
	var delivered int
	qp := fx.fab.NewQP("host1", d1, nil, "host2", d2, func(Frame) { delivered++ })
	pl := data.NewSlice(data.Bytes("x"))
	var sent int
	qp.PostFrom("host1", Frame{Payload: pl}, func() { sent++ }) // partitioned
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 || sent != 1 {
		t.Fatalf("partitioned QP: delivered=%d sent=%d", delivered, sent)
	}
	if qp.Broken() {
		t.Fatal("partition must not break the QP")
	}
	fx.env.Go("later", func(p *sim.Proc) { p.Sleep(2 * time.Millisecond) })
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	qp.PostFrom("host1", Frame{Payload: pl}, func() { sent++ })
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("healed QP delivered %d, want 1", delivered)
	}
}
