package qfs_test

import (
	"testing"
	"time"

	"vread/internal/cluster"
	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/metrics"
	"vread/internal/qfs"
	"vread/internal/sim"
	"vread/internal/trace"
)

type bed struct {
	c   *cluster.Cluster
	cs1 *qfs.ChunkServer
	cs2 *qfs.ChunkServer
	cl  *qfs.Client
	mgr *core.Manager
	lib *core.Lib
}

func newBed(t *testing.T, vread bool) *bed {
	t.Helper()
	c := cluster.New(1, cluster.Params{})
	h1 := c.AddHost("host1")
	h2 := c.AddHost("host2")
	clientVM := h1.AddVM("client", metrics.TagClientApp)
	cs1VM := h1.AddVM("cs1", metrics.TagDatanodeApp)
	cs2VM := h2.AddVM("cs2", metrics.TagDatanodeApp)

	ms := qfs.NewMetaServer(c.Env, qfs.Config{ChunkSize: 4 << 20})
	cs1 := qfs.StartChunkServer(c.Env, ms, cs1VM.Kernel)
	cs2 := qfs.StartChunkServer(c.Env, ms, cs2VM.Kernel)
	cl := qfs.NewClient(c.Env, ms, clientVM.Kernel)

	b := &bed{c: c, cs1: cs1, cs2: cs2, cl: cl}
	if vread {
		b.mgr = core.NewManager(c, nil, core.Config{}) // no HDFS namenode
		b.mgr.MountDatanode("cs1")
		b.mgr.MountDatanode("cs2")
		ms.AddListener(b.mgr) // metaserver drives the dentry refresh
		b.lib = b.mgr.EnableClient("client")
		cl.SetPathReader(qfs.PathReaderFunc(func(p *sim.Proc, tr *trace.Trace, server, path, key string) (qfs.Handle, bool) {
			return b.lib.OpenPath(p, tr, server, path, key)
		}))
	}
	return b
}

func (b *bed) run(t *testing.T, d time.Duration, name string, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	b.c.Go(name, func(p *sim.Proc) {
		fn(p)
		done = true
	})
	if err := b.c.Env.RunUntil(b.c.Env.Now() + d); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("%s did not finish", name)
	}
}

func TestQFSRoundTrip(t *testing.T) {
	b := newBed(t, false)
	defer b.c.Close()
	content := data.Pattern{Seed: 81, Size: 10 << 20} // 3 chunks, striped over 2 servers
	b.run(t, 5*time.Minute, "rw", func(p *sim.Proc) {
		if err := b.cl.WriteFile(p, "/q/f", content); err != nil {
			t.Error(err)
			return
		}
		got, err := b.cl.ReadFile(p, "/q/f")
		if err != nil {
			t.Error(err)
			return
		}
		if !data.Equal(got, data.NewSlice(content)) {
			t.Error("QFS round trip corrupted")
		}
	})
	// Striping used both servers.
	if b.cs1.ServedBytes() == 0 || b.cs2.ServedBytes() == 0 {
		t.Fatalf("striping broken: served %d / %d", b.cs1.ServedBytes(), b.cs2.ServedBytes())
	}
}

func TestQFSWithVReadBypassesChunkServers(t *testing.T) {
	b := newBed(t, true)
	defer b.c.Close()
	content := data.Pattern{Seed: 83, Size: 10 << 20}
	b.run(t, 5*time.Minute, "vread-rw", func(p *sim.Proc) {
		if err := b.cl.WriteFile(p, "/q/f", content); err != nil {
			t.Error(err)
			return
		}
		got, err := b.cl.ReadFile(p, "/q/f")
		if err != nil {
			t.Error(err)
			return
		}
		if !data.Equal(got, data.NewSlice(content)) {
			t.Error("QFS vRead read corrupted")
		}
	})
	// Every byte came through the daemons (local for cs1, remote for cs2).
	if b.cs1.ServedBytes() != 0 || b.cs2.ServedBytes() != 0 {
		t.Fatalf("chunk servers streamed %d/%d bytes despite vRead",
			b.cs1.ServedBytes(), b.cs2.ServedBytes())
	}
	st := b.mgr.Daemon("client").Stats()
	if st.BytesLocal+st.BytesRemote != content.Size {
		t.Fatalf("daemon served %d bytes, want %d", st.BytesLocal+st.BytesRemote, content.Size)
	}
	if st.BytesLocal == 0 || st.BytesRemote == 0 {
		t.Fatalf("expected both local and remote daemon traffic: %+v", st)
	}
	if st.OpenMisses != 0 {
		t.Fatalf("open misses: %d (refresh hook broken?)", st.OpenMisses)
	}
}

func TestQFSVReadFasterThanVanilla(t *testing.T) {
	measure := func(vread bool) time.Duration {
		b := newBed(t, vread)
		defer b.c.Close()
		content := data.Pattern{Seed: 84, Size: 8 << 20}
		var elapsed time.Duration
		b.run(t, 10*time.Minute, "measure", func(p *sim.Proc) {
			if err := b.cl.WriteFile(p, "/q/f", content); err != nil {
				t.Error(err)
				return
			}
			for _, vm := range b.c.AllVMs() {
				vm.Kernel.DropCaches()
			}
			b.c.Host("host1").Cache.DropAll()
			b.c.Host("host2").Cache.DropAll()
			start := b.c.Env.Now()
			if _, err := b.cl.ReadFile(p, "/q/f"); err != nil {
				t.Error(err)
				return
			}
			elapsed = b.c.Env.Now() - start
		})
		return elapsed
	}
	vanilla := measure(false)
	vread := measure(true)
	if vread >= vanilla {
		t.Fatalf("QFS with vRead %v not faster than vanilla %v", vread, vanilla)
	}
}

func TestQFSErrors(t *testing.T) {
	b := newBed(t, false)
	defer b.c.Close()
	b.run(t, time.Minute, "errs", func(p *sim.Proc) {
		if _, err := b.cl.ReadFile(p, "/missing"); err == nil {
			t.Error("read of missing file succeeded")
		}
		if err := b.cl.WriteFile(p, "/q/f", data.Bytes("x")); err != nil {
			t.Error(err)
			return
		}
		if err := b.cl.WriteFile(p, "/q/f", data.Bytes("y")); err == nil {
			t.Error("duplicate write succeeded")
		}
	})
}

// TestQFSChunkServerCycles pins what a 1 MiB chunk costs its chunk server
// on the application tag: 16 packets of QFS per-KB and per-packet work, plus
// the guest kernel's syscall and copy charges for the same bytes. Only cycle
// counts are compared, so a change to the metaserver RPC's latency moves
// nothing here.
func TestQFSChunkServerCycles(t *testing.T) {
	b := newBed(t, false)
	defer b.c.Close()
	const (
		packets   = 16                        // 1 MiB in 64 KiB packets
		perPacket = (64<<10)*1800/1024 + 9000 // ioCyclesPerKB and packetCycles
		guestW    = 579814                    // guest recv syscalls and copies
		guestR    = 575312                    // guest file reads and sends
	)
	var wrote, read int64
	b.run(t, 5*time.Minute, "cycles", func(p *sim.Proc) {
		if err := b.cl.WriteFile(p, "/q/f", data.Pattern{Seed: 83, Size: 1 << 20}); err != nil {
			t.Error(err)
			return
		}
		wrote = b.c.Reg.Cycles("cs1", metrics.TagDatanodeApp)
		if _, err := b.cl.ReadFile(p, "/q/f"); err != nil {
			t.Error(err)
			return
		}
		read = b.c.Reg.Cycles("cs1", metrics.TagDatanodeApp) - wrote
	})
	if want := int64(packets*perPacket + guestW); wrote != want {
		t.Errorf("chunk write charged %d cycles to cs1, want %d", wrote, want)
	}
	if want := int64(packets*perPacket + guestR); read != want {
		t.Errorf("chunk read charged %d cycles to cs1, want %d", read, want)
	}
}
