package guest_test

import (
	"testing"
	"time"

	"vread/internal/cluster"
	"vread/internal/data"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// TestReadaheadAcceleratesSequential: the guest kernel's readahead makes a
// sequential chunked read of a cold file substantially faster than the same
// chunks in a cache-defeating order.
func TestReadaheadAcceleratesSequential(t *testing.T) {
	c := cluster.New(1, cluster.Params{})
	defer c.Close()
	h1 := c.AddHost("host1")
	vm := h1.AddVM("vm", metrics.TagClientApp)
	const fileSize = 16 << 20
	const chunk = 64 << 10
	if err := vm.FS.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := vm.FS.WriteFile("/d/f", data.Pattern{Seed: 1, Size: fileSize}); err != nil {
		t.Fatal(err)
	}
	node, err := vm.FS.Stat("/d/f")
	if err != nil {
		t.Fatal(err)
	}

	var seq, scattered time.Duration
	done := false
	c.Go("reader", func(p *sim.Proc) {
		k := vm.Kernel
		k.DropCaches()
		start := c.Env.Now()
		for off := int64(0); off < fileSize; off += chunk {
			if _, err := k.ReadFileAt(p, nil, node, off, chunk); err != nil {
				t.Error(err)
				return
			}
		}
		seq = c.Env.Now() - start

		k.DropCaches()
		start = c.Env.Now()
		// Stride pattern: same chunk count, never sequential.
		const stride = 1 << 20
		for s := int64(0); s < stride; s += chunk {
			for off := s; off < fileSize; off += stride {
				if _, err := k.ReadFileAt(p, nil, node, off, chunk); err != nil {
					t.Error(err)
					return
				}
			}
		}
		scattered = c.Env.Now() - start
		done = true
	})
	if err := c.Env.RunUntil(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("reader did not finish")
	}
	if seq >= scattered {
		t.Fatalf("sequential %v not faster than scattered %v; readahead ineffective", seq, scattered)
	}
	// Readahead must actually populate the cache, not just issue I/O.
	if ratio := float64(scattered) / float64(seq); ratio < 1.3 {
		t.Fatalf("scattered/sequential = %.2f; readahead too weak", ratio)
	}
}

// TestReadaheadRestartsAfterDropCaches: a second sequential pass after
// DropCaches must re-issue readahead (regression test for the stale
// raIssued bookkeeping bug).
func TestReadaheadRestartsAfterDropCaches(t *testing.T) {
	c := cluster.New(1, cluster.Params{})
	defer c.Close()
	h1 := c.AddHost("host1")
	vm := h1.AddVM("vm", metrics.TagClientApp)
	const fileSize = 8 << 20
	if err := vm.FS.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := vm.FS.WriteFile("/d/f", data.Pattern{Seed: 2, Size: fileSize}); err != nil {
		t.Fatal(err)
	}
	node, err := vm.FS.Stat("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	var first, second time.Duration
	done := false
	c.Go("reader", func(p *sim.Proc) {
		k := vm.Kernel
		read := func() time.Duration {
			start := c.Env.Now()
			for off := int64(0); off < fileSize; off += 64 << 10 {
				if _, err := k.ReadFileAt(p, nil, node, off, 64<<10); err != nil {
					t.Error(err)
					return 0
				}
			}
			return c.Env.Now() - start
		}
		k.DropCaches()
		first = read()
		k.DropCaches()
		second = read()
		done = true
	})
	if err := c.Env.RunUntil(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("reader did not finish")
	}
	// Both passes are cold; they must be within 10% of each other.
	ratio := float64(second) / float64(first)
	if ratio > 1.1 || ratio < 0.9 {
		t.Fatalf("second cold pass %v vs first %v (ratio %.2f); readahead state stale", second, first, ratio)
	}
}
