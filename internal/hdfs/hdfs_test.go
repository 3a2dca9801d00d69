package hdfs_test

import (
	"errors"
	"io"
	"testing"
	"time"

	"vread/internal/cluster"
	"vread/internal/data"
	"vread/internal/fsim"
	"vread/internal/hdfs"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// testCluster builds the paper's Figure 10 skeleton: client VM + datanode VM
// on host1, a second datanode VM on host2. Block size is shrunk to 4 MiB so
// multi-block files stay cheap to simulate.
type testCluster struct {
	c   *cluster.Cluster
	nn  *hdfs.NameNode
	dn1 *hdfs.DataNode
	dn2 *hdfs.DataNode
	cl  *hdfs.Client
}

func newTestCluster(t *testing.T, cfg hdfs.Config) *testCluster {
	t.Helper()
	return newTestClusterParams(t, cfg, cluster.Params{})
}

// newTestClusterParams is newTestCluster on a cluster built with params.
func newTestClusterParams(t *testing.T, cfg hdfs.Config, params cluster.Params) *testCluster {
	t.Helper()
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 4 << 20
	}
	c := cluster.New(1, params)
	h1 := c.AddHost("host1")
	h2 := c.AddHost("host2")
	clientVM := h1.AddVM("client", metrics.TagClientApp)
	dn1VM := h1.AddVM("dn1", metrics.TagDatanodeApp)
	dn2VM := h2.AddVM("dn2", metrics.TagDatanodeApp)

	nn := hdfs.NewNameNode(c.Env, cfg, c.Fabric)
	dn1 := hdfs.StartDataNode(c.Env, nn, dn1VM.Kernel)
	dn2 := hdfs.StartDataNode(c.Env, nn, dn2VM.Kernel)
	cl := hdfs.NewClient(c.Env, nn, clientVM.Kernel)
	return &testCluster{c: c, nn: nn, dn1: dn1, dn2: dn2, cl: cl}
}

func (tc *testCluster) run(t *testing.T, d time.Duration, name string, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	tc.c.Go(name, func(p *sim.Proc) {
		fn(p)
		done = true
	})
	if err := tc.c.Env.RunUntil(tc.c.Env.Now() + d); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("%s did not finish within %v", name, d)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{})
	defer tc.c.Close()
	content := data.Pattern{Seed: 21, Size: 10 << 20} // 10 MiB = 3 blocks of 4 MiB

	tc.run(t, 30*time.Second, "writer", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/user/test/file1", content); err != nil {
			t.Error(err)
		}
	})
	if size, ok := tc.nn.FileSize("/user/test/file1"); !ok || size != content.Size {
		t.Fatalf("FileSize = %d,%v", size, ok)
	}

	tc.run(t, 60*time.Second, "reader", func(p *sim.Proc) {
		r, err := tc.cl.Open(p, "/user/test/file1")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		if r.Size() != content.Size {
			t.Errorf("reader size = %d", r.Size())
		}
		got, err := r.ReadFull(p, content.Size)
		if err != nil {
			t.Error(err)
			return
		}
		if !data.Equal(got, data.NewSlice(content)) {
			t.Error("read-back bytes differ from written bytes")
		}
		if _, err := r.Read(p, 1); err != io.EOF {
			t.Errorf("Read at EOF = %v", err)
		}
	})
}

func TestReadSpansBlocks(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{})
	defer tc.c.Close()
	content := data.Pattern{Seed: 5, Size: 9 << 20}
	tc.run(t, 30*time.Second, "writer", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/f", content); err != nil {
			t.Error(err)
		}
	})
	tc.run(t, 30*time.Second, "preader", func(p *sim.Proc) {
		r, err := tc.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		// A positional read crossing the first block boundary (read2).
		off := int64(4<<20) - 1000
		n := int64(5000)
		got, err := r.ReadAt(p, off, n)
		if err != nil {
			t.Error(err)
			return
		}
		want := data.NewSlice(content).Sub(off, n)
		if !data.Equal(got, want) {
			t.Error("cross-block pread bytes differ")
		}
	})
}

func TestSeekAndSequentialRead(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{})
	defer tc.c.Close()
	content := data.Pattern{Seed: 6, Size: 6 << 20}
	tc.run(t, 30*time.Second, "writer", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/f", content); err != nil {
			t.Error(err)
		}
	})
	tc.run(t, 30*time.Second, "reader", func(p *sim.Proc) {
		r, err := tc.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		if err := r.Seek(p, 5<<20); err != nil {
			t.Error(err)
			return
		}
		got, err := r.ReadFull(p, 1<<20)
		if err != nil {
			t.Error(err)
			return
		}
		if !data.Equal(got, data.NewSlice(content).Sub(5<<20, 1<<20)) {
			t.Error("post-seek read differs")
		}
		if err := r.Seek(p, content.Size+1); err == nil {
			t.Error("seek past EOF succeeded")
		}
	})
}

func TestPlacementPrefersColocated(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{})
	defer tc.c.Close()
	tc.run(t, 30*time.Second, "writer", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/f", data.Pattern{Seed: 1, Size: 1 << 20}); err != nil {
			t.Error(err)
		}
	})
	// Default placement must have chosen dn1 (same host as client).
	if !hdfs.HasBlock(tc.dn1, 1) {
		t.Fatal("block not placed on co-located datanode")
	}
	if hdfs.HasBlock(tc.dn2, 1) {
		t.Fatal("replication-1 block also on remote datanode")
	}
}

func TestReplicationPipeline(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{Replication: 2})
	defer tc.c.Close()
	content := data.Pattern{Seed: 8, Size: 2 << 20}
	tc.run(t, 30*time.Second, "writer", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/f", content); err != nil {
			t.Error(err)
		}
	})
	if !hdfs.HasBlock(tc.dn1, 1) || !hdfs.HasBlock(tc.dn2, 1) {
		t.Fatal("replica missing from a pipeline member")
	}
	// Both copies hold identical bytes.
	for _, dn := range []*hdfs.DataNode{tc.dn1, tc.dn2} {
		node, err := dn.Kernel().FS().Stat(hdfs.BlockPath(1))
		if err != nil {
			t.Fatalf("%s: %v", dn.Name(), err)
		}
		s, err := fsim.ReadNode(node, 0, content.Size)
		if err != nil {
			t.Fatalf("%s: %v", dn.Name(), err)
		}
		if !data.Equal(s, data.NewSlice(content)) {
			t.Fatalf("%s holds corrupted replica", dn.Name())
		}
	}
}

func TestRemoteRead(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{})
	defer tc.c.Close()
	// Force placement on the remote datanode only.
	tc.nn.SetPlacementPolicy(func(string, string, int) []string { return []string{"dn2"} })
	content := data.Pattern{Seed: 13, Size: 3 << 20}
	tc.run(t, 30*time.Second, "writer", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/f", content); err != nil {
			t.Error(err)
		}
	})
	if !hdfs.HasBlock(tc.dn2, 1) || hdfs.HasBlock(tc.dn1, 1) {
		t.Fatal("placement override ignored")
	}
	tc.run(t, 30*time.Second, "reader", func(p *sim.Proc) {
		r, err := tc.cl.Open(p, "/f")
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
			t.Error("remote read differs")
		}
	})
	// Remote read must cross the physical network.
	if tc.c.Fabric.NIC("host2").TxFrames() == 0 {
		t.Fatal("host2 NIC sent no frames")
	}
}

func TestOpenErrors(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{})
	defer tc.c.Close()
	tc.run(t, 10*time.Second, "opener", func(p *sim.Proc) {
		if _, err := tc.cl.Open(p, "/missing"); !errors.Is(err, hdfs.ErrNotFound) {
			t.Errorf("Open missing = %v", err)
		}
		if err := tc.nn.CreateFile(p, tc.cl.Kernel(), "/incomplete"); err != nil {
			t.Error(err)
		}
		if _, err := tc.cl.Open(p, "/incomplete"); !errors.Is(err, hdfs.ErrIncomplete) {
			t.Errorf("Open incomplete = %v", err)
		}
		if err := tc.nn.CreateFile(p, tc.cl.Kernel(), "/incomplete"); !errors.Is(err, hdfs.ErrExists) {
			t.Errorf("duplicate create = %v", err)
		}
	})
}

func TestDeleteFileRemovesBlocks(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{})
	defer tc.c.Close()
	tc.run(t, 30*time.Second, "writer", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/f", data.Pattern{Seed: 2, Size: 1 << 20}); err != nil {
			t.Error(err)
		}
		if err := tc.cl.DeleteFile(p, "/f"); err != nil {
			t.Error(err)
		}
	})
	if _, ok := tc.nn.FileSize("/f"); ok {
		t.Fatal("file metadata survives delete")
	}
	if hdfs.HasBlock(tc.dn1, 1) {
		t.Fatal("block survives delete")
	}
	if _, err := tc.dn1.Kernel().FS().Stat(hdfs.BlockPath(1)); err == nil {
		t.Fatal("block file survives delete")
	}
}

func TestBlockListenerFires(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{})
	defer tc.c.Close()
	var added, removed []string
	tc.nn.AddBlockListener(listenerFuncs{
		add:    func(dn, path string) { added = append(added, dn+":"+path) },
		remove: func(dn, path string) { removed = append(removed, dn+":"+path) },
	})
	tc.run(t, 30*time.Second, "writer", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/f", data.Pattern{Seed: 2, Size: 1 << 20}); err != nil {
			t.Error(err)
		}
		if err := tc.cl.DeleteFile(p, "/f"); err != nil {
			t.Error(err)
		}
	})
	if len(added) != 1 || added[0] != "dn1:/hadoop/dfs/data/blk_1" {
		t.Fatalf("added = %v", added)
	}
	if len(removed) != 1 {
		t.Fatalf("removed = %v", removed)
	}
}

type listenerFuncs struct {
	add    func(dn, path string)
	remove func(dn, path string)
}

func (l listenerFuncs) BlockAdded(dn, path string)   { l.add(dn, path) }
func (l listenerFuncs) BlockRemoved(dn, path string) { l.remove(dn, path) }

func TestShortCircuitSkipsDatanodeProcess(t *testing.T) {
	// Client running *inside* the datanode VM with short-circuit on: the
	// datanode process streams nothing.
	c := cluster.New(1, cluster.Params{})
	h1 := c.AddHost("host1")
	dnVM := h1.AddVM("dn1", metrics.TagDatanodeApp)
	nn := hdfs.NewNameNode(c.Env, hdfs.Config{BlockSize: 4 << 20, ShortCircuit: true}, c.Fabric)
	dn := hdfs.StartDataNode(c.Env, nn, dnVM.Kernel)
	cl := hdfs.NewClient(c.Env, nn, dnVM.Kernel) // same VM
	defer c.Close()

	content := data.Pattern{Seed: 3, Size: 2 << 20}
	done := false
	c.Go("writer-reader", func(p *sim.Proc) {
		if err := cl.WriteFile(p, "/f", content); err != nil {
			t.Error(err)
			return
		}
		r, err := cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		got, err := r.ReadFull(p, content.Size)
		if err != nil {
			t.Error(err)
			return
		}
		if !data.Equal(got, data.NewSlice(content)) {
			t.Error("short-circuit read differs")
		}
		done = true
	})
	if err := c.Env.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("short-circuit read did not finish")
	}
	if dn.ServedBytes() != 0 {
		t.Fatalf("datanode streamed %d bytes despite short-circuit", dn.ServedBytes())
	}
}

func TestColocatedVsLocalDelayMotivation(t *testing.T) {
	// The essence of Figure 2: reading through the co-located datanode VM is
	// substantially slower than reading the same bytes from the local file
	// system in-VM.
	tc := newTestCluster(t, hdfs.Config{})
	defer tc.c.Close()
	content := data.Pattern{Seed: 30, Size: 8 << 20}
	tc.run(t, 60*time.Second, "writer", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/f", content); err != nil {
			t.Error(err)
		}
	})

	var interVM, local time.Duration
	tc.run(t, 120*time.Second, "measure", func(p *sim.Proc) {
		// Cold caches on both sides.
		tc.dn1.Kernel().DropCaches()
		tc.cl.Kernel().DropCaches()
		r, err := tc.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		start := tc.c.Env.Now()
		if _, err := r.ReadFull(p, content.Size); err != nil {
			t.Error(err)
			return
		}
		interVM = tc.c.Env.Now() - start
		r.Close(p)

		// Local baseline: the same bytes in the client VM's own FS.
		vm := tc.c.VM("client")
		if err := vm.FS.MkdirAll("/local"); err != nil {
			t.Error(err)
			return
		}
		if err := vm.FS.WriteFile("/local/f", content); err != nil {
			t.Error(err)
			return
		}
		node, err := vm.FS.Stat("/local/f")
		if err != nil {
			t.Error(err)
			return
		}
		vm.Kernel.DropCaches()
		start = tc.c.Env.Now()
		if _, err := vm.Kernel.ReadFileAt(p, nil, node, 0, content.Size); err != nil {
			t.Error(err)
			return
		}
		local = tc.c.Env.Now() - start
	})
	if interVM < local*5/4 {
		t.Fatalf("inter-VM read %v not clearly slower than local read %v", interVM, local)
	}
}
