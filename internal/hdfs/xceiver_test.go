package hdfs_test

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"vread/internal/cluster"
	"vread/internal/data"
	"vread/internal/guest"
	"vread/internal/hdfs"
	"vread/internal/sim"
	"vread/internal/virtio"
)

// rawHeader encodes a datanode request header by hand: words are the
// big-endian 8-byte fields in order, names the 32-byte pipeline target
// slots that follow them, size the total header length.
func rawHeader(size int, words []uint64, names ...string) data.Slice {
	b := make([]byte, size)
	for i, w := range words {
		binary.BigEndian.PutUint64(b[8*i:], w)
	}
	for i, n := range names {
		copy(b[32+32*i:], n)
	}
	return data.NewSlice(data.Bytes(b))
}

// xceiverRun is one pinned xceiver session: the engine's event count,
// clock and Proc resumes once the scripted client has finished.
type xceiverRun struct {
	fired   uint64
	now     time.Duration
	resumes uint64
}

// TestXceiverBranches drives every branch of the datanode's session loop
// with a scripted client that checks the exact bytes on the wire, and pins
// each run's event count and final clock, which must not move when the
// loops' Procs are restructured. Proc resumes may only fall. A failed check
// inside the client panics its Proc, and Env.Run returns the panic.
func TestXceiverBranches(t *testing.T) {
	content := data.Pattern{Seed: 61, Size: 2 << 20}
	write := func(tc *testCluster, p *sim.Proc) hdfs.BlockInfo {
		if err := tc.cl.WriteFile(p, "/f", content); err != nil {
			panic(err)
		}
		blks, err := tc.nn.GetBlockLocations(p, tc.cl.Kernel(), "/f")
		if err != nil || len(blks) != 1 {
			panic(fmt.Sprintf("locations = %v, %v", blks, err))
		}
		return blks[0]
	}
	dial := func(tc *testCluster, p *sim.Proc, dn string) *guest.Conn {
		conn, err := tc.cl.Kernel().Dial(p, dn, hdfs.DataPort)
		if err != nil {
			panic(err)
		}
		return conn
	}
	expect := func(conn *guest.Conn, p *sim.Proc, want data.Slice) {
		got, ok := conn.RecvFull(p, want.Len())
		if !ok || !data.Equal(got, want) {
			panic(fmt.Sprintf("received %v (ok=%v), want %v", got.Bytes(), ok, want.Bytes()))
		}
	}
	expectEOF := func(conn *guest.Conn, p *sim.Proc) {
		if s, ok := conn.RecvFull(p, 1); ok {
			panic(fmt.Sprintf("received %v after the datanode should have closed", s.Bytes()))
		}
	}
	resp := func(status, n uint64) data.Slice { return rawHeader(16, []uint64{status, n}) }
	// readBlock requests [off, off+n) of blk from dn1 and checks the OK
	// header and then the bytes, after pause on the client.
	readBlock := func(tc *testCluster, p *sim.Proc, blk hdfs.BlockInfo, pause time.Duration) {
		conn := dial(tc, p, "dn1")
		if err := conn.Send(p, rawHeader(32, []uint64{1, uint64(blk.ID), 0, uint64(content.Size)})); err != nil {
			panic(err)
		}
		p.Sleep(pause)
		expect(conn, p, resp(0, uint64(content.Size)))
		expect(conn, p, data.NewSlice(content))
		conn.Close(p)
	}

	cases := []struct {
		name   string
		params cluster.Params
		repl   int
		script func(tc *testCluster, p *sim.Proc)
		want   xceiverRun
	}{
		{"unknown-op", cluster.Params{}, 1, func(tc *testCluster, p *sim.Proc) {
			conn := dial(tc, p, "dn1")
			if err := conn.Send(p, rawHeader(32, []uint64{9, 1, 0, 64})); err != nil {
				panic(err)
			}
			expect(conn, p, resp(1, 0))
			conn.Close(p)
		}, xceiverRun{191, 4000000, 26}},
		{"read-missing-block", cluster.Params{}, 1, func(tc *testCluster, p *sim.Proc) {
			conn := dial(tc, p, "dn1")
			if err := conn.Send(p, rawHeader(32, []uint64{1, 4242, 0, 1000})); err != nil {
				panic(err)
			}
			expect(conn, p, resp(1, 0))
			expectEOF(conn, p)
		}, xceiverRun{192, 4000000, 28}},
		{"write-target-refused", cluster.Params{}, 1, func(tc *testCluster, p *sim.Proc) {
			conn := dial(tc, p, "dn1")
			// The client VM runs no datanode, so the pipeline dial is reset.
			if err := conn.Send(p, rawHeader(128, []uint64{2, 4243, 64 << 10, 1}, "client")); err != nil {
				panic(err)
			}
			expect(conn, p, rawHeader(8, []uint64{1}))
			expectEOF(conn, p)
			if _, ok := hdfs.StoredBlock(tc.dn1, 4243); ok {
				panic("refused pipeline write stored its block")
			}
		}, xceiverRun{264, 4000000, 38}},
		{"client-closes-mid-stream", cluster.Params{}, 1, func(tc *testCluster, p *sim.Proc) {
			blk := write(tc, p)
			conn := dial(tc, p, "dn1")
			if err := conn.Send(p, rawHeader(32, []uint64{1, uint64(blk.ID), 0, uint64(content.Size)})); err != nil {
				panic(err)
			}
			expect(conn, p, resp(0, uint64(content.Size)))
			expect(conn, p, data.NewSlice(content).Sub(0, 100<<10))
			conn.Close(p)
			p.Sleep(100 * time.Millisecond)
			if got := tc.dn1.ServedBytes(); got != 0 {
				panic(fmt.Sprintf("served %d bytes of an abandoned stream", got))
			}
		}, xceiverRun{2749, 104372558, 347}},
		{"read-block-removed-mid-stream", cluster.Params{}, 1, func(tc *testCluster, p *sim.Proc) {
			// The session resolved the block file at open, so, like a Linux
			// reader holding it open, it streams every byte after a remove.
			blk := write(tc, p)
			conn := dial(tc, p, "dn1")
			if err := conn.Send(p, rawHeader(32, []uint64{1, uint64(blk.ID), 0, uint64(content.Size)})); err != nil {
				panic(err)
			}
			expect(conn, p, resp(0, uint64(content.Size)))
			expect(conn, p, data.NewSlice(content).Sub(0, 64<<10))
			if err := tc.dn1.Kernel().RemoveFile(p, hdfs.BlockPath(blk.ID)); err != nil {
				panic(err)
			}
			expect(conn, p, data.NewSlice(content).Sub(64<<10, content.Size-64<<10))
			conn.Close(p)
		}, xceiverRun{4637, 20187136, 104}},
		{"writer-closes-mid-block", cluster.Params{}, 1, func(tc *testCluster, p *sim.Proc) {
			conn := dial(tc, p, "dn1")
			if err := conn.Send(p, rawHeader(128, []uint64{2, 4244, 256 << 10, 0})); err != nil {
				panic(err)
			}
			if err := conn.Send(p, data.NewSlice(content).Sub(0, 64<<10)); err != nil {
				panic(err)
			}
			conn.Close(p)
			expectEOF(conn, p)
			if _, ok := hdfs.StoredBlock(tc.dn1, 4244); ok {
				panic("a truncated pipeline write stored its block")
			}
		}, xceiverRun{256, 4000000, 36}},
		{"window-full", cluster.Params{}, 1, func(tc *testCluster, p *sim.Proc) {
			blk := write(tc, p)
			readBlock(tc, p, blk, 50*time.Millisecond)
			if got := tc.dn1.ServedBytes(); got != content.Size {
				panic(fmt.Sprintf("served %d bytes, want %d", got, content.Size))
			}
		}, xceiverRun{4171, 57977984, 550}},
		{"readahead-overlap", cluster.Params{}, 2, func(tc *testCluster, p *sim.Proc) {
			blk := write(tc, p)
			tc.dn1.Kernel().DropCaches()
			readBlock(tc, p, blk, 0)
		}, xceiverRun{6801, 16175528, 869}},
		{"sriov", cluster.Params{Virtio: virtio.Config{SRIOV: true}}, 2, func(tc *testCluster, p *sim.Proc) {
			blk := write(tc, p)
			for _, dn := range []*hdfs.DataNode{tc.dn1, tc.dn2} {
				if n, ok := hdfs.StoredBlock(dn, blk.ID); !ok || n != content.Size {
					panic(fmt.Sprintf("%s stores %d bytes (ok=%v)", dn.Name(), n, ok))
				}
			}
			readBlock(tc, p, blk, 0)
		}, xceiverRun{4917, 12956224, 853}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			tc := newTestClusterParams(t, hdfs.Config{Replication: tt.repl}, tt.params)
			defer tc.c.Close()
			done := false
			tc.c.Go("client", func(p *sim.Proc) {
				tt.script(tc, p)
				done = true
			})
			// Run until the queue drains, so Now is the session's last event.
			env := tc.c.Env
			if err := env.Run(); err != nil || !done {
				t.Fatalf("run: %v (client finished: %v)", err, done)
			}
			got := xceiverRun{fired: env.Fired(), now: env.Now(), resumes: env.Resumes()}
			t.Logf("%s: fired %d now %d resumes %d", tt.name, got.fired, got.now, got.resumes)
			if got.fired != tt.want.fired || got.now != tt.want.now {
				t.Errorf("fired %d at %v, want %d at %v", got.fired, got.now, tt.want.fired, tt.want.now)
			}
			if got.resumes > tt.want.resumes {
				t.Errorf("%d Proc resumes, want at most %d", got.resumes, tt.want.resumes)
			}
		})
	}
}
