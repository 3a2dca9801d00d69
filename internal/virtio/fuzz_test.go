package virtio

import (
	"testing"

	"vread/internal/cpusched"
	"vread/internal/data"
	"vread/internal/metrics"
	"vread/internal/netsim"
	"vread/internal/sim"
)

// FuzzSanitizeFrame feeds vhost's check of a guest-written tx descriptor a
// payload length and a destination name, against a fabric holding two VMs.
// No input may panic, and an accepted frame has a length in
// [0, segmentBytes] and a registered destination; every other frame is
// rejected.
func FuzzSanitizeFrame(f *testing.F) {
	f.Add(int64(0), "vmB")
	f.Add(int64(segmentBytes), "vmA")
	f.Add(int64(segmentBytes+1), "vmB")
	f.Add(int64(-1), "vmB")
	f.Add(int64(512), "vmC")
	f.Add(int64(512), "")

	env := sim.NewEnv(1)
	defer env.Close()
	fab := netsim.NewFabric(env, netsim.Config{})
	cpu := cpusched.New(env, metrics.NewRegistry(), 1, 2_000_000_000, cpusched.Config{})
	nic := fab.AddHost("host1", cpu.NewThread("softirq", "host1"))
	var d *NetDev
	for _, vm := range []string{"vmA", "vmB"} {
		d = NewNetDev(env, Config{}, vm, "host1",
			cpu.NewThread(vm+":vcpu", vm), cpu.NewThread(vm+":vhost", vm), nic, fab)
	}

	f.Fuzz(func(t *testing.T, n int64, dst string) {
		out, ok := d.sanitizeFrame(netsim.Frame{DstVM: dst, Payload: data.Slice{N: n}})
		_, registered := fab.HostOf(dst)
		if valid := n >= 0 && n <= segmentBytes && registered; ok != valid {
			t.Fatalf("sanitizeFrame(len %d, dst %q) accepted=%v, want %v", n, dst, ok, valid)
		}
		if ok && (out.Payload.Len() != n || out.DstVM != dst) {
			t.Fatalf("accepted frame rewritten to len %d, dst %q", out.Payload.Len(), out.DstVM)
		}
	})
}

// FuzzSanitizeBlkReq feeds the iothread's check of a guest-written block
// request a size and a write flag. No input may panic, a request is accepted
// iff its size is in (0, blkReqBytes], and an accepted request is unchanged.
func FuzzSanitizeBlkReq(f *testing.F) {
	b := new(BlkDev)
	f.Fuzz(func(t *testing.T, n int64, write bool) {
		out, ok := b.sanitizeBlkReq(blkReq{bytes: n, write: write})
		if valid := n > 0 && n <= blkReqBytes; ok != valid {
			t.Fatalf("sanitizeBlkReq(size %d, write %v) accepted=%v, want %v", n, write, ok, valid)
		}
		if ok && (out.bytes != n || out.write != write) {
			t.Fatalf("accepted request rewritten to size %d, write %v", out.bytes, out.write)
		}
	})
}
