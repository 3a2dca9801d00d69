package hdfs_test

import (
	"testing"
	"time"

	"vread/internal/data"
	"vread/internal/hdfs"
	"vread/internal/sim"
)

// TestReadFailsOverToSecondReplica: with replication 2, killing the
// preferred (co-located) datanode leaves reads working off the remote
// replica.
func TestReadFailsOverToSecondReplica(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{Replication: 2})
	defer tc.c.Close()
	content := data.Pattern{Seed: 71, Size: 6 << 20}
	tc.run(t, 60*time.Second, "writer", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/f", content); err != nil {
			t.Error(err)
		}
	})
	if !hdfs.HasBlock(tc.dn1, 1) || !hdfs.HasBlock(tc.dn2, 1) {
		t.Fatal("replicas not on both datanodes")
	}

	// Crash the co-located datanode.
	tc.dn1.Stop()

	tc.run(t, 120*time.Second, "reader", func(p *sim.Proc) {
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
			t.Error("failover read corrupted")
		}
	})
	if tc.dn2.ServedBytes() < content.Size {
		t.Fatalf("surviving replica served only %d bytes", tc.dn2.ServedBytes())
	}
}

// TestReadFailsWhenAllReplicasDead: with a single replica, killing its
// datanode makes reads fail with a replica-exhaustion error.
func TestReadFailsWhenAllReplicasDead(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{})
	defer tc.c.Close()
	tc.run(t, 60*time.Second, "writer", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/f", data.Pattern{Seed: 72, Size: 1 << 20}); err != nil {
			t.Error(err)
		}
	})
	tc.dn1.Stop()
	tc.run(t, 60*time.Second, "reader", func(p *sim.Proc) {
		r, err := tc.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		if _, err := r.ReadFull(p, 1<<20); err == nil {
			t.Error("read from dead cluster succeeded")
		}
	})
}

// TestPositionalReadFailover: read2's per-request path also fails over.
func TestPositionalReadFailover(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{Replication: 2})
	defer tc.c.Close()
	content := data.Pattern{Seed: 73, Size: 2 << 20}
	tc.run(t, 60*time.Second, "writer", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/f", content); err != nil {
			t.Error(err)
		}
	})
	tc.dn1.Stop()
	tc.run(t, 120*time.Second, "preader", func(p *sim.Proc) {
		r, err := tc.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		s, err := r.ReadAt(p, 1<<20, 64<<10)
		if err != nil {
			t.Error(err)
			return
		}
		if !data.Equal(s, data.NewSlice(content).Sub(1<<20, 64<<10)) {
			t.Error("failover pread corrupted")
		}
	})
}
