package guest_test

import (
	"errors"
	"testing"
	"time"

	"vread/internal/cluster"
	"vread/internal/data"
	"vread/internal/guest"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// testbed: two co-located VMs on host1, one remote VM on host2.
func newTestbed(t *testing.T) *cluster.Cluster {
	t.Helper()
	c := cluster.New(1, cluster.Params{})
	h1 := c.AddHost("host1")
	h2 := c.AddHost("host2")
	h1.AddVM("client", metrics.TagClientApp)
	h1.AddVM("dn1", metrics.TagDatanodeApp)
	h2.AddVM("dn2", metrics.TagDatanodeApp)
	return c
}

func TestSocketColocatedRoundTrip(t *testing.T) {
	c := newTestbed(t)
	defer c.Close()
	payload := data.Pattern{Seed: 11, Size: 300 << 10} // spans 5 segments

	var got data.Slice
	c.Go("server", func(p *sim.Proc) {
		l := c.VM("dn1").Kernel.Listen(50010)
		conn, ok := l.Accept(p)
		if !ok {
			t.Error("accept failed")
			return
		}
		s, ok := conn.RecvFull(p, payload.Size)
		if !ok {
			t.Error("recv failed")
			return
		}
		got = s
		// Echo a small ack back.
		if err := conn.Send(p, data.NewSlice(data.Bytes("ok"))); err != nil {
			t.Error(err)
		}
	})
	var ack string
	c.Go("client", func(p *sim.Proc) {
		k := c.VM("client").Kernel
		conn, err := k.Dial(p, "dn1", 50010)
		if err != nil {
			t.Error(err)
			return
		}
		if err := conn.Send(p, data.NewSlice(payload)); err != nil {
			t.Error(err)
			return
		}
		s, ok := conn.RecvFull(p, 2)
		if !ok {
			t.Error("no ack")
			return
		}
		ack = string(s.Bytes())
	})
	if err := c.Env.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !data.Equal(got, data.NewSlice(payload)) {
		t.Fatal("payload corrupted through co-located socket")
	}
	if ack != "ok" {
		t.Fatalf("ack = %q", ack)
	}
	// Inter-VM traffic stays off the physical NIC.
	if c.Fabric.NIC("host1").TxFrames() != 0 {
		t.Fatal("co-located traffic used the physical NIC")
	}
}

func TestSocketRemoteRoundTrip(t *testing.T) {
	c := newTestbed(t)
	defer c.Close()
	payload := data.Pattern{Seed: 12, Size: 200 << 10}
	var got data.Slice
	c.Go("server", func(p *sim.Proc) {
		l := c.VM("dn2").Kernel.Listen(50010)
		conn, _ := l.Accept(p)
		got, _ = conn.RecvFull(p, payload.Size)
	})
	c.Go("client", func(p *sim.Proc) {
		conn, err := c.VM("client").Kernel.Dial(p, "dn2", 50010)
		if err != nil {
			t.Error(err)
			return
		}
		if err := conn.Send(p, data.NewSlice(payload)); err != nil {
			t.Error(err)
		}
	})
	if err := c.Env.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !data.Equal(got, data.NewSlice(payload)) {
		t.Fatal("payload corrupted through remote socket")
	}
	if c.Fabric.NIC("host1").TxFrames() == 0 {
		t.Fatal("remote traffic never hit the physical NIC")
	}
}

func TestDialRefused(t *testing.T) {
	c := newTestbed(t)
	defer c.Close()
	var err error
	c.Go("client", func(p *sim.Proc) {
		_, err = c.VM("client").Kernel.Dial(p, "dn1", 9999) // nothing listening
	})
	if runErr := c.Env.RunUntil(time.Second); runErr != nil {
		t.Fatal(runErr)
	}
	if !errors.Is(err, guest.ErrRefused) {
		t.Fatalf("Dial error = %v, want ErrRefused", err)
	}
	var err2 error
	c.Go("client2", func(p *sim.Proc) {
		_, err2 = c.VM("client").Kernel.Dial(p, "ghost-vm", 1)
	})
	if runErr := c.Env.RunUntil(2 * time.Second); runErr != nil {
		t.Fatal(runErr)
	}
	if !errors.Is(err2, guest.ErrRefused) {
		t.Fatalf("Dial unknown VM error = %v", err2)
	}
}

func TestCloseGivesEOF(t *testing.T) {
	c := newTestbed(t)
	defer c.Close()
	var sawData, sawEOF bool
	c.Go("server", func(p *sim.Proc) {
		l := c.VM("dn1").Kernel.Listen(50010)
		conn, _ := l.Accept(p)
		s, ok := conn.RecvFull(p, 5)
		sawData = ok && s.Len() == 5
		_, ok = conn.RecvFull(p, 1)
		sawEOF = !ok
	})
	c.Go("client", func(p *sim.Proc) {
		conn, err := c.VM("client").Kernel.Dial(p, "dn1", 50010)
		if err != nil {
			t.Error(err)
			return
		}
		if err := conn.Send(p, data.NewSlice(data.Bytes("hello"))); err != nil {
			t.Error(err)
		}
		conn.Close(p)
		if err := conn.Send(p, data.NewSlice(data.Bytes("x"))); !errors.Is(err, guest.ErrClosed) {
			t.Errorf("Send after Close = %v", err)
		}
	})
	if err := c.Env.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if !sawData || !sawEOF {
		t.Fatalf("sawData=%v sawEOF=%v", sawData, sawEOF)
	}
}

func TestSendWindowBackpressure(t *testing.T) {
	c := newTestbed(t)
	defer c.Close()
	const payload = 4 << 20 // 4 MiB, far above the 1 MiB window
	var sendDone, consumeStart time.Duration
	c.Go("server", func(p *sim.Proc) {
		l := c.VM("dn1").Kernel.Listen(50010)
		conn, _ := l.Accept(p)
		p.Sleep(500 * time.Millisecond) // let the sender hit the window
		consumeStart = c.Env.Now()
		if _, ok := conn.RecvFull(p, payload); !ok {
			t.Error("recv failed")
		}
	})
	c.Go("client", func(p *sim.Proc) {
		conn, err := c.VM("client").Kernel.Dial(p, "dn1", 50010)
		if err != nil {
			t.Error(err)
			return
		}
		if err := conn.Send(p, data.NewSlice(data.Pattern{Seed: 1, Size: payload})); err != nil {
			t.Error(err)
		}
		sendDone = c.Env.Now()
	})
	if err := c.Env.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sendDone <= consumeStart {
		t.Fatalf("Send finished at %v before consumer started at %v; window not enforced", sendDone, consumeStart)
	}
}

func TestTwoConnectionsIndependent(t *testing.T) {
	c := newTestbed(t)
	defer c.Close()
	results := map[string]string{}
	c.Go("server", func(p *sim.Proc) {
		l := c.VM("dn1").Kernel.Listen(50010)
		for i := 0; i < 2; i++ {
			conn, _ := l.Accept(p)
			c.Go("handler", func(p *sim.Proc) {
				s, _ := conn.RecvFull(p, 2)
				results[string(s.Bytes())] = "yes"
			})
		}
	})
	for _, src := range []string{"client", "dn2"} {
		src := src
		c.Go("dial:"+src, func(p *sim.Proc) {
			conn, err := c.VM(src).Kernel.Dial(p, "dn1", 50010)
			if err != nil {
				t.Error(err)
				return
			}
			msg := src[:2]
			if err := conn.Send(p, data.NewSlice(data.Bytes(msg))); err != nil {
				t.Error(err)
			}
		})
	}
	if err := c.Env.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if results["cl"] != "yes" || results["dn"] != "yes" {
		t.Fatalf("results = %v", results)
	}
}

func TestFileReadCacheAndDisk(t *testing.T) {
	c := newTestbed(t)
	defer c.Close()
	vm := c.VM("dn1")
	content := data.Pattern{Seed: 9, Size: 2 << 20}
	if err := vm.FS.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	if err := vm.FS.WriteFile("/data/blk", content); err != nil {
		t.Fatal(err)
	}
	node, err := vm.FS.Stat("/data/blk")
	if err != nil {
		t.Fatal(err)
	}

	var cold, warm time.Duration
	var coldReads int64
	c.Go("reader", func(p *sim.Proc) {
		k := vm.Kernel
		start := c.Env.Now()
		s, err := k.ReadFileAt(p, nil, node, 0, content.Size)
		if err != nil {
			t.Error(err)
			return
		}
		cold = c.Env.Now() - start
		if !data.Equal(s, data.NewSlice(content)) {
			t.Error("cold read corrupted")
		}
		coldReads = vm.Host.Disk.Stats().Reads

		start = c.Env.Now()
		if _, err := k.ReadFileAt(p, nil, node, 0, content.Size); err != nil {
			t.Error(err)
		}
		warm = c.Env.Now() - start
		if vm.Host.Disk.Stats().Reads != coldReads {
			t.Error("warm read touched the disk")
		}

		// Drop caches: next read hits the disk again.
		k.DropCaches()
		if _, err := k.ReadFileAt(p, nil, node, 0, content.Size); err != nil {
			t.Error(err)
		}
		if vm.Host.Disk.Stats().Reads == coldReads {
			t.Error("read after DropCaches did not touch the disk")
		}
	})
	if err := c.Env.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if coldReads == 0 {
		t.Fatal("cold read never touched the disk")
	}
	if warm >= cold {
		t.Fatalf("warm read %v not faster than cold read %v", warm, cold)
	}
}

func TestAppendFileWritebackReachesDisk(t *testing.T) {
	c := newTestbed(t)
	defer c.Close()
	vm := c.VM("dn1")
	if err := vm.FS.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	c.Go("writer", func(p *sim.Proc) {
		k := vm.Kernel
		if err := k.CreateFile(p, "/data/blk"); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 4; i++ {
			if err := k.AppendFile(p, "/data/blk", data.Pattern{Seed: uint64(i), Size: 256 << 10}); err != nil {
				t.Error(err)
			}
		}
	})
	if err := c.Env.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	node, err := vm.FS.Stat("/data/blk")
	if err != nil {
		t.Fatal(err)
	}
	if node.Size() != 1<<20 {
		t.Fatalf("file size = %d", node.Size())
	}
	if w := vm.Host.Disk.Stats().BytesWritten; w != 1<<20 {
		t.Fatalf("disk received %d bytes of writeback", w)
	}
}

func TestTransferChargesExpectedEntities(t *testing.T) {
	c := newTestbed(t)
	defer c.Close()
	c.Reg.MarkWindow(0)
	const n = 1 << 20
	c.Go("server", func(p *sim.Proc) {
		l := c.VM("dn1").Kernel.Listen(50010)
		conn, _ := l.Accept(p)
		conn.RecvFull(p, n)
	})
	c.Go("client", func(p *sim.Proc) {
		conn, err := c.VM("client").Kernel.Dial(p, "dn1", 50010)
		if err != nil {
			t.Error(err)
			return
		}
		conn.Send(p, data.NewSlice(data.Pattern{Seed: 3, Size: n}))
	})
	if err := c.Env.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Sender side: app copy + virtio copies (guest→host, inter-VM).
	if c.Reg.Cycles("client", metrics.TagClientApp) == 0 {
		t.Fatal("no client-application cycles")
	}
	senderCopies := c.Reg.Cycles("client", metrics.TagCopyVirtio)
	wantSender := 2 * (int64(n) * 256 / 1024)
	if senderCopies < wantSender*9/10 || senderCopies > wantSender*11/10 {
		t.Fatalf("sender virtio copies = %d, want ~%d", senderCopies, wantSender)
	}
	// Receiver side: datanode app copy on Recv, vhost only for sender.
	if c.Reg.Cycles("dn1", metrics.TagDatanodeApp) == 0 {
		t.Fatal("no datanode-application cycles")
	}
	if c.Reg.Cycles("client", metrics.TagVhostNet) == 0 {
		t.Fatal("no vhost-net cycles on sender")
	}
}

func TestGuestDeterminism(t *testing.T) {
	run := func() time.Duration {
		c := cluster.New(7, cluster.Params{})
		defer c.Close()
		h1 := c.AddHost("h1")
		h1.AddVM("a", metrics.TagClientApp)
		h1.AddVM("b", metrics.TagDatanodeApp)
		var done time.Duration
		c.Go("server", func(p *sim.Proc) {
			l := c.VM("b").Kernel.Listen(1)
			conn, _ := l.Accept(p)
			conn.RecvFull(p, 1<<20)
			done = c.Env.Now()
		})
		c.Go("client", func(p *sim.Proc) {
			conn, err := c.VM("a").Kernel.Dial(p, "b", 1)
			if err != nil {
				return
			}
			conn.Send(p, data.NewSlice(data.Pattern{Seed: 1, Size: 1 << 20}))
		})
		if err := c.Env.RunUntil(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		return done
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic transfer: %v vs %v", a, b)
	}
}
