package core

import (
	"testing"
	"time"

	"vread/internal/cluster"
	"vread/internal/data"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// serverFixture drives hostServer handlers directly: a mounted datanode on
// host1 holding /blk_1, and host2 as the requesting side whose pending queue
// we register by hand.
type serverFixture struct {
	c    *cluster.Cluster
	m    *Manager
	srv  *hostServer
	pend *sim.Queue[chunkMsg]
}

const serverBlockSize = 1 << 20

func newServerFixture(t *testing.T) *serverFixture {
	t.Helper()
	c := cluster.New(1, cluster.Params{})
	h1 := c.AddHost("host1")
	h2 := c.AddHost("host2")
	dnVM := h1.AddVM("dn1", metrics.TagDatanodeApp)
	if err := dnVM.FS.WriteFile("/blk_1", data.Pattern{Seed: 7, Size: serverBlockSize}); err != nil {
		t.Fatal(err)
	}
	m := NewManager(c, nil, Config{Transport: TransportTCP})
	m.MountDatanode("dn1")
	m.ensureServer(h2)
	fx := &serverFixture{c: c, m: m, srv: m.servers["host1"]}
	fx.pend = sim.NewQueue[chunkMsg](c.Env, 0)
	m.nextReq++
	m.pending[m.nextReq] = fx.pend
	return fx
}

// call serves one request through the server's queue to completion and
// returns every chunk the requesting host received.
func (fx *serverFixture) call(t *testing.T, req remoteReq) []chunkMsg {
	t.Helper()
	req.reqID = fx.m.nextReq
	req.fromHost = "host2"
	fx.srv.reqs.TryPut(req)
	if err := fx.c.Env.RunUntil(fx.c.Env.Now() + 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if fx.c.Env.Pending() != 0 {
		t.Fatal("handler did not finish")
	}
	var got []chunkMsg
	for {
		msg, ok := fx.pend.TryGet()
		if !ok {
			return got
		}
		got = append(got, msg)
	}
}

func TestHostServerOpenErrors(t *testing.T) {
	tests := []struct {
		name   string
		dn     string
		path   string
		wantOK bool
	}{
		{"unknown datanode", "nope", "/blk_1", false},
		{"unknown path", "dn1", "/nope", false},
		{"valid open", "dn1", "/blk_1", true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			fx := newServerFixture(t)
			defer fx.c.Close()
			got := fx.call(t, remoteReq{dn: tc.dn, path: tc.path, open: true})
			if len(got) != 1 {
				t.Fatalf("got %d reply chunks, want 1", len(got))
			}
			if got[0].err {
				t.Fatal("open reply flagged err; opens must miss, not fail")
			}
			if got[0].openOK != tc.wantOK {
				t.Fatalf("openOK = %v, want %v", got[0].openOK, tc.wantOK)
			}
			if tc.wantOK && got[0].size != serverBlockSize {
				t.Fatalf("open size = %d, want %d", got[0].size, serverBlockSize)
			}
		})
	}
}

func TestHostServerReadErrors(t *testing.T) {
	tests := []struct {
		name    string
		dn      string
		path    string
		off, n  int64
		wantErr bool
		// minChunks counts data chunks expected before any error chunk.
		minChunks int
	}{
		{"unknown datanode", "nope", "/blk_1", 0, 4096, true, 0},
		{"unknown path", "dn1", "/nope", 0, 4096, true, 0},
		{"offset past EOF", "dn1", "/blk_1", serverBlockSize + 4096, 4096, true, 0},
		{"window overrunning EOF", "dn1", "/blk_1", serverBlockSize - 100, 4096, true, 0},
		{"valid read", "dn1", "/blk_1", 0, 128 << 10, false, 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			fx := newServerFixture(t)
			defer fx.c.Close()
			got := fx.call(t, remoteReq{dn: tc.dn, path: tc.path, off: tc.off, n: tc.n})
			if len(got) == 0 {
				t.Fatal("no reply chunks")
			}
			last := got[len(got)-1]
			if last.err != tc.wantErr {
				t.Fatalf("last chunk err = %v, want %v", last.err, tc.wantErr)
			}
			var bytes int64
			dataChunks := 0
			for i, msg := range got {
				if msg.err {
					if i != len(got)-1 {
						t.Fatal("error chunk before end of stream")
					}
					continue
				}
				if msg.off != tc.off+bytes {
					t.Fatalf("chunk %d at offset %d, want contiguous %d", i, msg.off, tc.off+bytes)
				}
				bytes += msg.payload.Len()
				dataChunks++
			}
			if dataChunks < tc.minChunks {
				t.Fatalf("got %d data chunks, want at least %d", dataChunks, tc.minChunks)
			}
			if !tc.wantErr && bytes != tc.n {
				t.Fatalf("streamed %d bytes, want %d", bytes, tc.n)
			}
		})
	}
}
