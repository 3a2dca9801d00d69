package cpusched

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"vread/internal/metrics"
	"vread/internal/sim"
)

// Property: N always-runnable threads with equal demand receive CPU within
// a fair-share tolerance of each other over a long window, for any N and
// core count — the CFS guarantee everything else is built on.
func TestFairShareProperty(t *testing.T) {
	f := func(nSeed, coreSeed uint8) bool {
		n := 2 + int(nSeed%6)        // 2..7 threads
		cores := 1 + int(coreSeed%4) // 1..4 cores
		env := sim.NewEnv(int64(nSeed)*31 + int64(coreSeed))
		reg := metrics.NewRegistry()
		cpu := New(env, reg, cores, ghz, Config{})
		for i := 0; i < n; i++ {
			th := cpu.NewThread(fmt.Sprintf("t%d", i), fmt.Sprintf("e%d", i))
			env.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
				for env.Now() < 2*time.Second {
					th.Run(p, 2_000_000, "w") // 2ms chunks, never idle
				}
			})
		}
		if err := env.RunUntil(2 * time.Second); err != nil {
			return false
		}
		env.Close()
		var min, max int64
		for i := 0; i < n; i++ {
			c := reg.WindowEntityCycles(fmt.Sprintf("e%d", i))
			if i == 0 || c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if min <= 0 {
			return false // starvation
		}
		// Oversubscribed: shares within 30% of each other. Undersubscribed:
		// everyone runs essentially unimpeded.
		if n > cores {
			return float64(max-min)/float64(max) < 0.30
		}
		return float64(max-min)/float64(max) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: work conservation — with more runnable demand than cores, total
// consumed cycles over a window is at least 95% of the machine's capacity.
func TestWorkConservationProperty(t *testing.T) {
	f := func(coreSeed uint8) bool {
		cores := 1 + int(coreSeed%4)
		env := sim.NewEnv(int64(coreSeed) + 7)
		reg := metrics.NewRegistry()
		cpu := New(env, reg, cores, ghz, Config{})
		n := cores * 2
		for i := 0; i < n; i++ {
			th := cpu.NewThread(fmt.Sprintf("t%d", i), "all")
			env.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
				for env.Now() < time.Second {
					th.Run(p, 1_000_000, "w")
				}
			})
		}
		if err := env.RunUntil(time.Second); err != nil {
			return false
		}
		env.Close()
		capacity := int64(cores) * ghz // cycles in 1s
		return reg.WindowEntityCycles("all") >= capacity*95/100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Fatal(err)
	}
}
