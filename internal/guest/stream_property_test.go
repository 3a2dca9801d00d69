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
// full virtio/vhost path, co-located or remote.
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
		var contents data.Concat
		for i, sz := range sendSizes {
			n := int64(sz)%100_000 + 1
			total += n
			contents = append(contents, data.NewSlice(data.Pattern{Seed: uint64(i) + 11, Size: n}))
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
			var parts data.Concat
			var n int64
			for n < total {
				want := total - n
				if want > recvChunk {
					want = recvChunk
				}
				s, ok := conn.RecvFull(p, want)
				if !ok {
					okRun = false
					return
				}
				parts = append(parts, s)
				n += s.Len()
			}
			got = data.NewSlice(parts)
		})
		c.Go("client", func(p *sim.Proc) {
			conn, err := c.VM("a").Kernel.Dial(p, "b", 1)
			if err != nil {
				okRun = false
				return
			}
			for _, part := range contents {
				if err := conn.Send(p, part); err != nil {
					okRun = false
					return
				}
			}
		})
		if err := c.Env.RunUntil(5 * time.Minute); err != nil {
			return false
		}
		return okRun && got.Len() == total && data.Equal(got, data.NewSlice(contents))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
