package experiments

import (
	"runtime"
	"testing"
	"time"

	"vread/internal/data"
	"vread/internal/fsim"
	"vread/internal/sim"
)

// maxAllocsPerPacket is the steady-state allocation bar of the data paths:
// heap objects per 64 KiB packet or chunk, once a testbed is warm.
const maxAllocsPerPacket = 0.05

const packetBytes = 64 << 10

// TestWritePathAllocFree holds the HDFS write path and the vRead remote read
// path to their steady state: once warm, a packet crosses guest TCP,
// virtio-net, the NIC, the xceiver, the guest file system, the page cache
// and virtio-blk, and a chunk crosses the daemons, the RDMA QP and the
// ring, allocating (almost) nothing. Every frame, segment, work request,
// cache node and chunk meta in flight is a recycled record.
func TestWritePathAllocFree(t *testing.T) {
	t.Run("hdfs-write", func(t *testing.T) {
		// Replication 2 sends each packet client → dn1 inside host1 (the
		// vhost hand-off) and dn1 → dn2 across the NIC.
		tb := NewTestbed(Options{Replication: 2, BlockSize: 256 << 20})
		defer tb.Close()
		// A long-running datanode's page cache is full: fill both guest
		// caches past their capacity with another object, so the write
		// evicts a chunk per chunk it caches.
		for _, dn := range []string{"dn1", "dn2"} {
			tb.C.VM(dn).Cache.Insert(-1, 0, 2<<30)
		}
		const fileBytes = 256 << 20 // one block
		tb.C.Go("writer", func(p *sim.Proc) {
			if err := tb.Client.WriteFile(p, "/alloc/w", data.Pattern{Seed: 3, Size: fileBytes}); err != nil {
				t.Error(err)
			}
		})
		dn2 := tb.C.VM("dn2").FS
		stored := func() int64 {
			var n int64
			dn2.Walk(func(_ string, node *fsim.Inode) { n += node.Size() })
			return n
		}
		env := tb.C.Env
		step := 100 * time.Microsecond
		for stored() < fileBytes/8 {
			if err := env.RunFor(step); err != nil {
				t.Fatal(err)
			}
		}
		warm, at := stored(), env.Now()
		mallocs := countMallocs(func() {
			// Five times as long as the first eighth took: about five
			// eighths more of the file, with the write still in progress.
			if err := env.RunFor(5 * at); err != nil {
				t.Fatal(err)
			}
		})
		moved := stored() - warm
		if moved <= 0 || stored() >= fileBytes {
			t.Fatalf("measured window moved %d bytes of %d stored; want the write in progress", moved, stored())
		}
		packets := float64(moved) / packetBytes
		t.Logf("write path: %d allocations over %.0f packets", mallocs, packets)
		if per := float64(mallocs) / packets; per > maxAllocsPerPacket {
			t.Errorf("write path: %d allocations over %.0f packets, %.3f per packet; want <= %v",
				mallocs, packets, per, maxAllocsPerPacket)
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("vread-remote-read", func(t *testing.T) {
		tb := NewTestbed(Options{VRead: true})
		defer tb.Close()
		tb.Place(Remote)
		const fileBytes, readBytes = 16 << 20, 8 << 20
		content := data.Pattern{Seed: 5, Size: fileBytes}
		var mallocs uint64
		if err := tb.Run("reader", time.Hour, func(p *sim.Proc) error {
			if err := tb.Client.WriteFile(p, "/alloc/r", content); err != nil {
				return err
			}
			blocks, err := tb.NS.GetBlockLocations(p, tb.Client.Kernel(), "/alloc/r")
			if err != nil {
				return err
			}
			vfd, ok := tb.Lib.OpenBlock(p, nil, tb.Client.Kernel(), blocks[0], "dn2")
			if !ok {
				t.Fatal("vRead open fell back")
			}
			pass := func() {
				for off := int64(0); off < fileBytes; off += readBytes {
					s, err := vfd.ReadAt(p, nil, off, readBytes)
					if err != nil || s.Len() != readBytes {
						t.Fatalf("read at %d: %d bytes, %v", off, s.Len(), err)
					}
				}
			}
			pass() // fills the remote host's page cache
			mallocs = countMallocs(pass)
			s, err := vfd.ReadAt(p, nil, 0, fileBytes)
			if err != nil || !data.Equal(s, data.NewSlice(content)) {
				t.Errorf("read back differs from the file: %v", err)
			}
			vfd.Close(p, nil)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if st := tb.Mgr.DaemonStats("client"); st.BytesRemote == 0 {
			t.Fatal("no byte crossed the QP")
		}
		chunks := float64(fileBytes) / packetBytes
		t.Logf("vRead remote read: %d allocations over %.0f chunks", mallocs, chunks)
		if per := float64(mallocs) / chunks; per > maxAllocsPerPacket {
			t.Errorf("vRead remote read: %d allocations over %.0f chunks, %.3f per chunk; want <= %v",
				mallocs, chunks, per, maxAllocsPerPacket)
		}
	})
}

// countMallocs returns the heap objects fn allocates.
func countMallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
