package virtio

import (
	"testing"
	"time"

	"vread/internal/cpusched"
	"vread/internal/data"
	"vread/internal/metrics"
	"vread/internal/netsim"
	"vread/internal/sim"
	"vread/internal/storage"
)

const ghz = int64(2_000_000_000)

type netFixture struct {
	env  *sim.Env
	reg  *metrics.Registry
	fab  *netsim.Fabric
	cpu1 *cpusched.CPU
	cpu2 *cpusched.CPU
	devA *NetDev // vmA on host1
	devB *NetDev // vmB on host1 (co-located with A)
	devC *NetDev // vmC on host2 (remote)
}

func newNetFixture(t *testing.T) *netFixture {
	t.Helper()
	env := sim.NewEnv(1)
	reg := metrics.NewRegistry()
	fab := netsim.NewFabric(env, netsim.Config{})
	cpu1 := cpusched.New(env, reg, 4, ghz, cpusched.Config{})
	cpu2 := cpusched.New(env, reg, 4, ghz, cpusched.Config{})
	nic1 := fab.AddHost("host1", cpu1.NewThread("softirq1", "host1"))
	nic2 := fab.AddHost("host2", cpu2.NewThread("softirq2", "host2"))

	mk := func(cpu *cpusched.CPU, nic *netsim.NIC, vm, host string) *NetDev {
		d := NewNetDev(env, Config{}, vm, host,
			cpu.NewThread("vcpu:"+vm, vm), cpu.NewThread("vhost:"+vm, vm), nic, fab)
		d.Start()
		return d
	}
	fx := &netFixture{
		env: env, reg: reg, fab: fab, cpu1: cpu1, cpu2: cpu2,
		devA: mk(cpu1, nic1, "vmA", "host1"),
		devB: mk(cpu1, nic1, "vmB", "host1"),
		devC: mk(cpu2, nic2, "vmC", "host2"),
	}
	return fx
}

func (fx *netFixture) close() { fx.env.Close() }

func TestColocatedFrameDelivery(t *testing.T) {
	fx := newNetFixture(t)
	defer fx.close()
	var got []netsim.Frame
	fx.devB.SetDeliver(func(fr netsim.Frame) { got = append(got, fr) })

	payload := data.NewSlice(data.Bytes("inter-vm hello"))
	done := false
	fx.env.Go("sender", func(p *sim.Proc) {
		fx.devA.Transmit(p, netsim.Frame{DstVM: "vmB", Payload: payload})
		done = true
	})
	if err := fx.env.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("transmit never completed")
	}
	if len(got) != 1 || string(got[0].Payload.Bytes()) != "inter-vm hello" {
		t.Fatalf("delivery = %v", got)
	}
	// Co-located copies: guest→host + inter-VM, charged to sender entity.
	copies := fx.reg.Cycles("vmA", metrics.TagCopyVirtio)
	wantCopies := 2 * copyCycles(int64(len("inter-vm hello")))
	if copies != wantCopies {
		t.Fatalf("sender copy cycles = %d, want %d (2 copies)", copies, wantCopies)
	}
	// No physical NIC involvement.
	if fx.fab.NIC("host1").TxFrames() != 0 {
		t.Fatal("co-located traffic hit the physical NIC")
	}
	// Guest IRQ charged on receiver vCPU.
	if fx.reg.Cycles("vmB", metrics.TagOthers) == 0 {
		t.Fatal("no guest IRQ cycles on receiver")
	}
}

func TestRemoteFrameDelivery(t *testing.T) {
	fx := newNetFixture(t)
	defer fx.close()
	var got []netsim.Frame
	fx.devC.SetDeliver(func(fr netsim.Frame) { got = append(got, fr) })

	payload := data.NewSlice(data.Pattern{Seed: 2, Size: 64 << 10})
	fx.env.Go("sender", func(p *sim.Proc) {
		fx.devA.Transmit(p, netsim.Frame{DstVM: "vmC", Payload: payload})
	})
	if err := fx.env.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !data.Equal(got[0].Payload, payload) {
		t.Fatalf("remote delivery failed: %d frames", len(got))
	}
	if fx.fab.NIC("host1").TxFrames() != 1 {
		t.Fatalf("NIC tx frames = %d", fx.fab.NIC("host1").TxFrames())
	}
	// Receive-side vhost copy charged to vmC.
	if fx.reg.Cycles("vmC", metrics.TagCopyVirtio) == 0 {
		t.Fatal("no receive-side virtio copy charged")
	}
}

func TestTransmitOrderPreserved(t *testing.T) {
	fx := newNetFixture(t)
	defer fx.close()
	var order []byte
	fx.devB.SetDeliver(func(fr netsim.Frame) {
		order = append(order, fr.Payload.Bytes()[0])
	})
	fx.env.Go("sender", func(p *sim.Proc) {
		for i := byte('a'); i <= 'e'; i++ {
			fx.devA.Transmit(p, netsim.Frame{DstVM: "vmB", Payload: data.NewSlice(data.Bytes{i})})
		}
	})
	if err := fx.env.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if string(order) != "abcde" {
		t.Fatalf("delivery order = %q", order)
	}
}

func TestOversizeFramePanics(t *testing.T) {
	fx := newNetFixture(t)
	defer fx.close()
	fx.env.Go("sender", func(p *sim.Proc) {
		fx.devA.Transmit(p, netsim.Frame{DstVM: "vmB", Payload: data.NewSlice(data.Pattern{Seed: 1, Size: 128 << 10})})
	})
	if err := fx.env.RunUntil(10 * time.Millisecond); err == nil {
		t.Fatal("expected oversize frame to fail the sender process")
	}
}

type blkFixture struct {
	env  *sim.Env
	reg  *metrics.Registry
	disk *storage.Disk
	dev  *BlkDev
}

func newBlkFixture(t *testing.T, diskCfg storage.DiskConfig) *blkFixture {
	t.Helper()
	env := sim.NewEnv(1)
	reg := metrics.NewRegistry()
	cpu := cpusched.New(env, reg, 4, ghz, cpusched.Config{})
	disk := storage.NewDisk(env, "ssd", diskCfg)
	dev := NewBlkDev(env, "vm1",
		cpu.NewThread("vcpu", "vm1"), cpu.NewThread("iothread", "vm1"), disk)
	dev.Start()
	return &blkFixture{env: env, reg: reg, disk: disk, dev: dev}
}

func TestBlkReadHitsDisk(t *testing.T) {
	fx := newBlkFixture(t, storage.DiskConfig{})
	var elapsed time.Duration
	fx.env.Go("reader", func(p *sim.Proc) {
		start := fx.env.Now()
		transfer(p, fx.dev, 10<<20, false) // 10 MiB
		elapsed = fx.env.Now() - start
	})
	if err := fx.env.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	fx.env.Close()
	if s := fx.disk.Stats(); s.BytesRead != 10<<20 {
		t.Fatalf("disk read %d bytes", s.BytesRead)
	}
	// 10 MiB at 500MB/s ≈ 21ms; with per-request latency and copies, below 40ms.
	if elapsed < 20*time.Millisecond || elapsed > 40*time.Millisecond {
		t.Fatalf("10MiB read took %v", elapsed)
	}
	if fx.reg.Cycles("vm1", metrics.TagCopyVirtio) == 0 {
		t.Fatal("no virtio copy cycles charged for block read")
	}
	if fx.reg.Cycles("vm1", metrics.TagDiskRead) == 0 {
		t.Fatal("no host-side block processing charged")
	}
}

func TestBlkWrite(t *testing.T) {
	fx := newBlkFixture(t, storage.DiskConfig{})
	fx.env.Go("writer", func(p *sim.Proc) {
		transfer(p, fx.dev, 1<<20, true)
	})
	if err := fx.env.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	fx.env.Close()
	if s := fx.disk.Stats(); s.BytesWritten != 1<<20 {
		t.Fatalf("disk wrote %d bytes", s.BytesWritten)
	}
}

func TestBlkWriteAsyncReturnsBeforeDiskDone(t *testing.T) {
	// Slow disk: a write transfer should return long before the device
	// finishes.
	fx := newBlkFixture(t, storage.DiskConfig{WriteBandwidth: 10_000_000}) // 10MB/s
	var submitted time.Duration
	fx.env.Go("writer", func(p *sim.Proc) {
		transfer(p, fx.dev, 10<<20, true) // 1s of device time
		submitted = fx.env.Now()
	})
	if err := fx.env.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	fx.env.Close()
	if submitted > 100*time.Millisecond {
		t.Fatalf("write transfer blocked until %v", submitted)
	}
	if s := fx.disk.Stats(); s.BytesWritten != 10<<20 {
		t.Fatalf("disk wrote %d bytes", s.BytesWritten)
	}
}

func TestBlkRequestSplitting(t *testing.T) {
	fx := newBlkFixture(t, storage.DiskConfig{})
	fx.env.Go("reader", func(p *sim.Proc) {
		transfer(p, fx.dev, 3<<20, false) // 3 MiB = 6 requests of 512 KiB
	})
	if err := fx.env.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	fx.env.Close()
	if s := fx.disk.Stats(); s.Reads != 6 {
		t.Fatalf("disk request count = %d, want 6", s.Reads)
	}
}

// transfer runs one block transfer from p.
func transfer(p *sim.Proc, dev *BlkDev, n int64, write bool) {
	dev.Transfer(new(BlkIO), nil, n, write, p.ArmInline())
	p.Await()
}
