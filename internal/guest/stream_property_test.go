package guest_test

import (
	"testing"
	"testing/quick"
	"time"

	"vread/internal/cluster"
	"vread/internal/data"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// Property: for any sequence of send sizes and any receive chunking, the
// stream delivers exactly the concatenation of what was sent — across the
// full virtio/vhost path, co-located or remote — and a receive of bytes the
// peer sent as one Slice comes back as one window of it.
func TestStreamIntegrityProperty(t *testing.T) {
	f := func(sendSizes []uint16, recvChunkSeed uint16, remote bool) bool {
		if len(sendSizes) == 0 {
			return true
		}
		if len(sendSizes) > 12 {
			sendSizes = sendSizes[:12]
		}
		c := cluster.New(3, cluster.Params{})
		defer c.Close()
		h1 := c.AddHost("h1")
		h2 := c.AddHost("h2")
		h1.AddVM("a", metrics.TagClientApp)
		if remote {
			h2.AddVM("b", metrics.TagDatanodeApp)
		} else {
			h1.AddVM("b", metrics.TagDatanodeApp)
		}

		var total int64
		var sends []data.Slice
		var starts []int64 // each send's offset in the stream
		var sent data.Builder
		for i, sz := range sendSizes {
			// Up to 128 KiB, so a send spans up to three 64 KiB segments.
			s := data.NewSlice(data.Pattern{Seed: uint64(i) + 11, Size: 2*int64(sz) + 1})
			sends, starts = append(sends, s), append(starts, total)
			sent.Add(s)
			total += s.Len()
		}
		recvChunk := int64(recvChunkSeed)%70_000 + 1

		var got data.Slice
		okRun := true
		c.Go("server", func(p *sim.Proc) {
			l := c.VM("b").Kernel.Listen(1)
			conn, ok := l.Accept(p)
			if !ok {
				okRun = false
				return
			}
			var all data.Builder
			for n := int64(0); n < total; n = all.Len() {
				want := total - n
				if want > recvChunk {
					want = recvChunk
				}
				s, ok := conn.RecvFull(p, want)
				if !ok {
					okRun = false
					return
				}
				for i, send := range sends {
					at := n - starts[i]
					if at >= 0 && at+want <= send.Len() && (s.C != send.C || s.Off != at) {
						t.Errorf("receive [%d,%d) within send %d is not one window of it", n, n+want, i)
					}
				}
				all.Add(s)
			}
			got = all.Slice()
		})
		c.Go("client", func(p *sim.Proc) {
			conn, err := c.VM("a").Kernel.Dial(p, "b", 1)
			if err != nil {
				okRun = false
				return
			}
			for _, part := range sends {
				if err := conn.Send(p, part); err != nil {
					okRun = false
					return
				}
			}
		})
		if err := c.Env.RunUntil(5 * time.Minute); err != nil {
			return false
		}
		return okRun && got.Len() == total && data.Equal(got, sent.Slice())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
