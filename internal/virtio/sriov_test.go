package virtio

import (
	"testing"
	"time"

	"vread/internal/cpusched"
	"vread/internal/data"
	"vread/internal/metrics"
	"vread/internal/netsim"
	"vread/internal/sim"
)

func newSRIOVFixture(t *testing.T, cfg Config) *netFixture {
	t.Helper()
	env := sim.NewEnv(1)
	reg := metrics.NewRegistry()
	fab := netsim.NewFabric(env, netsim.Config{})
	cpu1 := cpusched.New(env, reg, 4, ghz, cpusched.Config{})
	cpu2 := cpusched.New(env, reg, 4, ghz, cpusched.Config{})
	nic1 := fab.AddHost("host1", cpu1.NewThread("softirq1", "host1"))
	nic2 := fab.AddHost("host2", cpu2.NewThread("softirq2", "host2"))
	mk := func(cpu *cpusched.CPU, nic *netsim.NIC, vm, host string) *NetDev {
		d := NewNetDev(env, cfg, vm, host,
			cpu.NewThread("vcpu:"+vm, vm), cpu.NewThread("vhost:"+vm, vm), nic, fab)
		d.Start()
		return d
	}
	return &netFixture{
		env: env, reg: reg, fab: fab, cpu1: cpu1, cpu2: cpu2,
		devA: mk(cpu1, nic1, "vmA", "host1"),
		devB: mk(cpu1, nic1, "vmB", "host1"),
		devC: mk(cpu2, nic2, "vmC", "host2"),
	}
}

func TestSRIOVBypassesVhost(t *testing.T) {
	fx := newSRIOVFixture(t, Config{SRIOV: true})
	defer fx.close()
	var got []netsim.Frame
	fx.devC.SetDeliver(func(fr netsim.Frame) { got = append(got, fr) })

	payload := data.NewSlice(data.Pattern{Seed: 1, Size: 64 << 10})
	fx.env.Go("sender", func(p *sim.Proc) {
		fx.devA.Transmit(p, netsim.Frame{DstVM: "vmC", Payload: payload})
	})
	if err := fx.env.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !data.Equal(got[0].Payload, payload) {
		t.Fatalf("delivery failed: %d frames", len(got))
	}
	// No vhost copies anywhere, no softirq on the receiving host.
	if fx.reg.Cycles("vmA", metrics.TagCopyVirtio) != 0 || fx.reg.Cycles("vmC", metrics.TagCopyVirtio) != 0 {
		t.Fatal("SR-IOV path charged virtio copies")
	}
	if fx.reg.Cycles("vmA", metrics.TagVhostNet) != 0 {
		t.Fatal("SR-IOV path used vhost-net")
	}
	if fx.reg.Cycles("host2", metrics.TagVhostNet) != 0 {
		t.Fatal("SR-IOV path used host softirq")
	}
}

func TestSRIOVColocatedHairpins(t *testing.T) {
	fx := newSRIOVFixture(t, Config{SRIOV: true})
	defer fx.close()
	var got int
	fx.devB.SetDeliver(func(fr netsim.Frame) { got++ })
	fx.env.Go("sender", func(p *sim.Proc) {
		fx.devA.Transmit(p, netsim.Frame{DstVM: "vmB", Payload: data.NewSlice(data.Pattern{Seed: 2, Size: 64 << 10})})
	})
	if err := fx.env.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("delivered %d frames", got)
	}
	// Hairpin: co-located SR-IOV traffic goes through the physical NIC.
	if fx.fab.NIC("host1").TxFrames() != 1 {
		t.Fatalf("NIC tx frames = %d, want 1 (hairpin)", fx.fab.NIC("host1").TxFrames())
	}
}

func TestSRIOVCheaperThanVirtioForRemote(t *testing.T) {
	measure := func(sriov bool) int64 {
		fx := newSRIOVFixture(t, Config{SRIOV: sriov})
		defer fx.close()
		fx.devC.SetDeliver(func(netsim.Frame) {})
		fx.env.Go("sender", func(p *sim.Proc) {
			payload := data.NewSlice(data.Pattern{Seed: 3, Size: 64 << 10})
			for i := 0; i < 16; i++ {
				fx.devA.Transmit(p, netsim.Frame{DstVM: "vmC", Payload: payload})
			}
		})
		if err := fx.env.RunUntil(time.Second); err != nil {
			t.Fatal(err)
		}
		return fx.reg.WindowEntityCycles("vmA") + fx.reg.WindowEntityCycles("vmC") +
			fx.reg.WindowEntityCycles("host1") + fx.reg.WindowEntityCycles("host2")
	}
	virtio := measure(false)
	sriov := measure(true)
	if sriov >= virtio {
		t.Fatalf("SR-IOV cycles %d not below virtio %d", sriov, virtio)
	}
}
