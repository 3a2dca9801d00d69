package core

// White-box tests for the guest's slot drain: slots of one daemon fill come
// back as one window, reads that span several fills still return exact
// bytes, and a torn stream still surfaces ErrShortRead.

import (
	"errors"
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
// returned one daemon fill's window of the block file itself, else the
// parts of the Concat it joined.
func (f *drainFixture) windows(s data.Slice) int {
	if s.C.Len() == f.content.Size {
		return 1
	}
	return len(s.C.(data.Concat))
}

// TestDrainOneWindowPerFill: every daemon fill reaches the application as
// one window, so a read served by one fill allocates nothing in the drain and
// a multi-fill read is a Concat of one window per fill, never one per slot.
func TestDrainOneWindowPerFill(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cfg         Config
		off, n      int64
		wantWindows int
		maxAllocs   float64
	}{
		// 256 slots per doorbell batch: the daemon fills the whole MiB at
		// once. A warm read makes 2 allocations (measured on Go 1.24), none
		// of them in the drain, which hotalloc holds allocation-free.
		{"1MiB-one-batch", Config{EventBatchSlots: 256}, 0, 1 << 20, 1, 4},
		// The default 32-slot batch: one fill per 128 KiB, so 8 windows, not
		// 256 (22 allocations measured; one box per slot would be 256+).
		{"1MiB-default-batches", Config{}, 0, 1 << 20, 8, 32},
		{"64KiB-unaligned", Config{}, 3<<20 + 123, 64 << 10, 1, 4},
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
			if w := f.windows(got); w != tc.wantWindows {
				t.Fatalf("read is %d windows, want %d", w, tc.wantWindows)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := f.read(t, "dn1", tc.off, tc.n); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.maxAllocs {
				t.Fatalf("warm read allocates %v objects, want <= %v", allocs, tc.maxAllocs)
			}
		})
	}
}

// TestDrainMultiRunExactBytes: reads that span several daemon fills — a
// remote read relays one fill per 64 KiB chunk, and 1 KiB slots make a
// local fill of 32 KiB — join back into exactly the block's bytes.
func TestDrainMultiRunExactBytes(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cfg         Config
		dn          string
		wantWindows int
	}{
		{"remote-rdma", Config{Transport: TransportRDMA}, "dn2", 16},
		{"remote-tcp", Config{Transport: TransportTCP}, "dn2", 16},
		{"local-1KiB-slots", Config{SlotBytes: 1 << 10}, "dn1", 32},
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
				if w := f.windows(got); w != tc.wantWindows {
					t.Fatalf("read [%d,%d) is %d windows, want %d", r.off, r.off+r.n, w, tc.wantWindows)
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
// back exact, every token is free again afterwards, and the events, Proc
// resumes and virtual time match the slot-at-a-time ring this one replaced
// (the pinned values were recorded on it).
func TestDrainRingExhaustion(t *testing.T) {
	for _, tc := range []struct {
		name           string
		cfg            Config
		fired, resumes uint64
		now            time.Duration
	}{
		{"4-slots", Config{RingSlots: 4}, 3974, 1929, 38143235 * time.Nanosecond},
		{"7-slots-1KiB-batch3", Config{RingSlots: 7, SlotBytes: 1 << 10, EventBatchSlots: 3}, 43187, 12896, 52023551 * time.Nanosecond},
		{"128-slots-1KiB-batch8", Config{RingSlots: 128, SlotBytes: 1 << 10, EventBatchSlots: 8}, 16780, 4560, 37754339 * time.Nanosecond},
		{"defaults", Config{}, 2724, 684, 38044285 * time.Nanosecond},
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
			if env.Fired() != tc.fired || env.Resumes() != tc.resumes || env.Now() != tc.now {
				t.Fatalf("fired/resumes/now = %d/%d/%v, want %d/%d/%v",
					env.Fired(), env.Resumes(), env.Now(), tc.fired, tc.resumes, tc.now)
			}
		})
	}
}
