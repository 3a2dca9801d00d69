package hdfs_test

import (
	"fmt"
	"testing"
	"time"

	"vread/internal/data"
	"vread/internal/hdfs"
	"vread/internal/sim"
)

// TestSeekAbandonsStreamCleanly: seeking away from an open stream aborts
// the datanode's push (RST semantics) instead of wedging the handler.
func TestSeekAbandonsStreamCleanly(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{})
	defer tc.c.Close()
	content := data.Pattern{Seed: 51, Size: 8 << 20}
	tc.run(t, 60*time.Second, "writer", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/f", content); err != nil {
			t.Error(err)
		}
	})
	tc.run(t, 120*time.Second, "seeker", func(p *sim.Proc) {
		r, err := tc.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		for i := 0; i < 10; i++ {
			// Start a stream, read a little, abandon it by seeking.
			if _, err := r.Read(p, 64<<10); err != nil {
				t.Error(err)
				return
			}
			if err := r.Seek(p, int64(i)*512<<10); err != nil {
				t.Error(err)
				return
			}
		}
		// Drain stragglers so abandoned handlers can observe the RSTs.
		p.Sleep(time.Second)
	})
	// Every abandoned handler must have exited: the only long-lived procs
	// are the infrastructure loops (vhosts, iothreads, datanode accept
	// loops, daemons). Generous bound: well under one per abandoned stream.
	if live := tc.c.Env.Live(); live > 25 {
		t.Fatalf("%d live processes; abandoned stream handlers leaked", live)
	}
}

// TestPreadConnectionReuse: positional reads reuse one DataXceiver session
// per datanode instead of dialing per request.
func TestPreadConnectionReuse(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{})
	defer tc.c.Close()
	content := data.Pattern{Seed: 52, Size: 4 << 20}
	tc.run(t, 60*time.Second, "writer", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/f", content); err != nil {
			t.Error(err)
		}
	})
	before := hdfs.AcceptedConns(tc.dn1)
	tc.run(t, 120*time.Second, "preader", func(p *sim.Proc) {
		r, err := tc.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		for i := 0; i < 50; i++ {
			off := int64(i) * 64 << 10
			s, err := r.ReadAt(p, off, 4<<10)
			if err != nil {
				t.Error(err)
				return
			}
			if !data.Equal(s, data.NewSlice(content).Sub(off, 4<<10)) {
				t.Error("pread bytes differ")
				return
			}
		}
	})
	if got := hdfs.AcceptedConns(tc.dn1) - before; got != 1 {
		t.Fatalf("50 preads opened %d connections, want 1 (reuse)", got)
	}
}

// TestConcurrentFileReaders: several readers of one file make progress
// together and all verify their bytes (the 2-map-slot DFSIO situation).
func TestConcurrentFileReaders(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{})
	defer tc.c.Close()
	content := data.Pattern{Seed: 53, Size: 6 << 20}
	tc.run(t, 60*time.Second, "writer", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/f", content); err != nil {
			t.Error(err)
		}
	})
	done := 0
	for i := 0; i < 3; i++ {
		tc.c.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
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
				t.Error("concurrent reader got corrupted bytes")
				return
			}
			done++
		})
	}
	if err := tc.c.Env.RunUntil(tc.c.Env.Now() + 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Fatalf("%d/3 concurrent readers finished", done)
	}
}

// TestWriteWhileReading: HDFS's write-once model — a file being written is
// unreadable (ErrIncomplete) until completed, then becomes readable without
// disturbing concurrent readers of other files.
func TestWriteWhileReading(t *testing.T) {
	tc := newTestCluster(t, hdfs.Config{})
	defer tc.c.Close()
	a := data.Pattern{Seed: 54, Size: 4 << 20}
	tc.run(t, 60*time.Second, "writerA", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/a", a); err != nil {
			t.Error(err)
		}
	})
	finished := false
	tc.c.Go("readerA", func(p *sim.Proc) {
		r, err := tc.cl.Open(p, "/a")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		if _, err := r.ReadFull(p, a.Size); err != nil {
			t.Error(err)
			return
		}
		finished = true
	})
	tc.c.Go("writerB", func(p *sim.Proc) {
		if err := tc.cl.WriteFile(p, "/b", data.Pattern{Seed: 55, Size: 4 << 20}); err != nil {
			t.Error(err)
		}
	})
	if err := tc.c.Env.RunUntil(tc.c.Env.Now() + 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("reader starved by concurrent writer")
	}
}
