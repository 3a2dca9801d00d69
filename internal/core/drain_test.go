package core

// White-box tests for the guest's slot drain: a read comes back as one
// window of the block file however many daemon fills and slots carried it,
// its bytes are exact, and a torn stream still surfaces ErrShortRead.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vread/internal/cluster"
	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/metrics"
	"vread/internal/sim"
)

const drainBlockSize = 4 << 20

// drainFixture is a vRead deployment without HDFS: the client VM and
// datanode dn1 on host1, datanode dn2 on host2, each datanode holding the
// same pattern as block file /blk. A persistent reader Proc serves one
// ReadAt per trigger, so a warm read can be measured with AllocsPerRun.
type drainFixture struct {
	c       *cluster.Cluster
	lib     *Lib
	content data.Pattern
	trigger *sim.Queue[struct{}]

	// The read the reader Proc performs, and its result.
	dn      string
	off, n  int64
	got     data.Slice
	err     error
	served  int
	vfds    map[string]*VFD
	openErr bool
}

func newDrainFixture(t *testing.T, cfg Config) *drainFixture {
	t.Helper()
	c := cluster.New(1, cluster.Params{})
	h1 := c.AddHost("host1")
	h2 := c.AddHost("host2")
	h1.AddVM("client", metrics.TagClientApp)
	f := &drainFixture{
		c:       c,
		content: data.Pattern{Seed: 77, Size: drainBlockSize},
		trigger: sim.NewQueue[struct{}](c.Env, 0),
		vfds:    map[string]*VFD{},
	}
	for _, dn := range []struct {
		name string
		host *cluster.Host
	}{{"dn1", h1}, {"dn2", h2}} {
		vm := dn.host.AddVM(dn.name, metrics.TagDatanodeApp)
		if err := vm.FS.WriteFile("/blk", f.content); err != nil {
			t.Fatal(err)
		}
	}
	m := NewManager(c, nil, cfg)
	m.MountDatanode("dn1")
	m.MountDatanode("dn2")
	f.lib = m.EnableClient("client")
	c.Go("reader", func(p *sim.Proc) {
		for {
			if _, ok := f.trigger.Get(p); !ok {
				return
			}
			vfd := f.vfds[f.dn]
			if vfd == nil {
				var ok bool
				if vfd, ok = f.lib.OpenPath(p, nil, f.dn, "/blk", f.dn+"/blk"); !ok {
					f.openErr = true
					continue
				}
				f.vfds[f.dn] = vfd
			}
			f.got, f.err = vfd.ReadAt(p, nil, f.off, f.n)
			f.served++
		}
	})
	t.Cleanup(c.Close)
	return f
}

// read has the reader Proc read [off, off+n) of dn's block and runs the
// simulation until it is done.
func (f *drainFixture) read(t testing.TB, dn string, off, n int64) (data.Slice, error) {
	f.dn, f.off, f.n = dn, off, n
	want := f.served + 1
	f.trigger.TryPut(struct{}{})
	if err := f.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if f.openErr || f.served != want {
		t.Fatalf("read of %s [%d,%d) did not finish (open failed: %v)", dn, off, off+n, f.openErr)
	}
	return f.got, f.err
}

// windows counts the windows a drained read is made of: 1 when the drain
// returned one window of the block file itself, else the parts of the
// Concat it joined.
func (f *drainFixture) windows(s data.Slice) int {
	if s.C.Len() == f.content.Size {
		return 1
	}
	return len(s.C.(data.Concat))
}

// TestDrainOneWindowPerRead: the daemon's fills of one read are contiguous
// windows of the block file, so the drain joins them into one window and a
// warm read allocates nothing in it, however many fills and doorbell
// batches carried it.
func TestDrainOneWindowPerRead(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		off, n int64
	}{
		// 256 slots per doorbell batch: the daemon fills the whole MiB at
		// once.
		{"1MiB-one-batch", Config{EventBatchSlots: 256}, 0, 1 << 20},
		// The default 32-slot batch: one fill per 128 KiB, 8 fills joined
		// into one window. Each case makes 0 allocations on Go 1.24.
		{"1MiB-default-batches", Config{}, 0, 1 << 20},
		{"64KiB-unaligned", Config{}, 3<<20 + 123, 64 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newDrainFixture(t, tc.cfg)
			got, err := f.read(t, "dn1", tc.off, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if !data.Equal(got, data.NewSlice(f.content).Sub(tc.off, tc.n)) {
				t.Fatal("drained bytes differ from the block")
			}
			if w := f.windows(got); w != 1 {
				t.Fatalf("read is %d windows, want 1", w)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := f.read(t, "dn1", tc.off, tc.n); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 4 {
				t.Fatalf("warm read allocates %v objects, want <= 4", allocs)
			}
		})
	}
}

// TestDrainMultiRunExactBytes: reads that span several daemon fills — a
// remote read relays one fill per 64 KiB chunk, and 1 KiB slots make a
// local fill of 32 KiB — join back into exactly the block's bytes, as one
// window.
func TestDrainMultiRunExactBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		dn   string
	}{
		{"remote-rdma", Config{Transport: TransportRDMA}, "dn2"},
		{"remote-tcp", Config{Transport: TransportTCP}, "dn2"},
		{"local-1KiB-slots", Config{SlotBytes: 1 << 10}, "dn1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newDrainFixture(t, tc.cfg)
			for _, r := range []struct{ off, n int64 }{{0, 1 << 20}, {1<<20 + 511, 1 << 20}} {
				got, err := f.read(t, tc.dn, r.off, r.n)
				if err != nil {
					t.Fatal(err)
				}
				if !data.Equal(got, data.NewSlice(f.content).Sub(r.off, r.n)) {
					t.Fatalf("read [%d,%d) differs from the block", r.off, r.off+r.n)
				}
				if w := f.windows(got); w != 1 {
					t.Fatalf("read [%d,%d) is %d windows, want 1", r.off, r.off+r.n, w)
				}
			}
		})
	}
}

// TestDrainTornReadIsShort: a torn disk read ends the ring stream early with
// a last slot; joining runs must not hide that, so every retry fails with
// ErrShortRead and no truncated Slice escapes.
func TestDrainTornReadIsShort(t *testing.T) {
	f := newDrainFixture(t, Config{})
	plan := faults.NewPlan(f.c.Env)
	f.lib.daemon.InjectFaults(plan)
	plan.Set(faults.Rule{Point: faults.DiskReadTorn, Prob: 1})
	got, err := f.read(t, "dn1", 0, 1<<20)
	if !errors.Is(err, ErrShortRead) {
		t.Fatalf("torn read: err = %v, want ErrShortRead", err)
	}
	if got.Len() != 0 {
		t.Fatalf("torn read returned %d bytes alongside its error", got.Len())
	}
	if r := f.lib.Stats().Retries; r != int64(maxReadRetries) {
		t.Fatalf("retries = %d, want %d", r, maxReadRetries)
	}
}

// TestDrainRingExhaustion: with a ring smaller than one read, the daemon runs
// out of slot tokens mid-fill and pushes the rest of the fill once the guest
// returns some. Local and remote reads, unaligned ones included, still come
// back exact, every token is free again afterwards, and the events and
// virtual time match the slot-at-a-time ring this one replaced (the pinned
// values were recorded on it). The Proc resumes are a ceiling, set to what
// the handler chains resume: the reader Proc's start and trigger waits,
// and one per libvread call.
func TestDrainRingExhaustion(t *testing.T) {
	for _, tc := range []struct {
		name           string
		cfg            Config
		fired, resumes uint64
		now            time.Duration
	}{
		{"4-slots", Config{RingSlots: 4}, 3974, 14, 38143235 * time.Nanosecond},
		{"7-slots-1KiB-batch3", Config{RingSlots: 7, SlotBytes: 1 << 10, EventBatchSlots: 3}, 43187, 14, 52023551 * time.Nanosecond},
		{"128-slots-1KiB-batch8", Config{RingSlots: 128, SlotBytes: 1 << 10, EventBatchSlots: 8}, 16780, 14, 37754339 * time.Nanosecond},
		{"defaults", Config{}, 2724, 14, 38044285 * time.Nanosecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newDrainFixture(t, tc.cfg)
			for _, dn := range []string{"dn1", "dn2"} {
				for _, r := range []struct{ off, n int64 }{{0, 1 << 20}, {4097, 300000}, {0, drainBlockSize}} {
					got, err := f.read(t, dn, r.off, r.n)
					if err != nil {
						t.Fatalf("%s [%d,%d): %v", dn, r.off, r.off+r.n, err)
					}
					if !data.Equal(got, data.NewSlice(f.content).Sub(r.off, r.n)) {
						t.Fatalf("%s [%d,%d) differs from the block", dn, r.off, r.off+r.n)
					}
				}
			}
			ring := f.lib.daemon.ring
			if ring.free != int64(ring.cfg.RingSlots) {
				t.Fatalf("%d of %d slot tokens free after the reads", ring.free, ring.cfg.RingSlots)
			}
			env := f.c.Env
			if env.Fired() != tc.fired || env.Resumes() > tc.resumes || env.Now() != tc.now {
				t.Fatalf("fired/resumes/now = %d/%d/%v, want %d/≤%d/%v",
					env.Fired(), env.Resumes(), env.Now(), tc.fired, tc.resumes, tc.now)
			}
		})
	}
}

// TestReadParksOncePerCall: a libvread call is a continuation chain under a
// thin Proc wrapper, so the calling Proc parks exactly once per open, read
// and close, however many vCPU charges, lock waits and slot batches the call
// spans.
func TestReadParksOncePerCall(t *testing.T) {
	const reads = 4
	f := newDrainFixture(t, Config{})
	env := f.c.Env
	calls := 0
	once := func(p *sim.Proc, what string, call func()) {
		r0 := env.Resumes()
		call()
		if n := env.Resumes() - r0; n != 1 {
			t.Errorf("%s resumed the caller %d times, want 1", what, n)
		}
		calls++
	}
	f.c.Go("caller", func(p *sim.Proc) {
		for _, dn := range []string{"dn1", "dn2"} {
			var vfd *VFD
			once(p, dn+" open", func() {
				var ok bool
				if vfd, ok = f.lib.OpenPath(p, nil, dn, "/blk", dn+"/blk"); !ok {
					t.Errorf("open of %s fell back", dn)
				}
			})
			if vfd == nil {
				return
			}
			for i := int64(0); i < reads; i++ {
				off, n := i*300001, 300000+i*4096 // several doorbell batches each
				once(p, fmt.Sprintf("%s read %d", dn, i), func() {
					got, err := vfd.ReadAt(p, nil, off, n)
					if err != nil || !data.Equal(got, data.NewSlice(f.content).Sub(off, n)) {
						t.Errorf("%s read [%d,%d): %d bytes, err %v", dn, off, off+n, got.Len(), err)
					}
				})
			}
			once(p, dn+" close", func() { vfd.Close(p, nil) })
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 2 * (reads + 2); calls != want {
		t.Fatalf("%d calls finished, want %d", calls, want)
	}
}
