package cpusched

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"vread/internal/metrics"
	"vread/internal/sim"
)

const ghz = int64(1_000_000_000)

func newCPU(t *testing.T, cores int, freq int64) (*sim.Env, *metrics.Registry, *CPU) {
	t.Helper()
	env := sim.NewEnv(1)
	reg := metrics.NewRegistry()
	cpu := New(env, reg, cores, freq, Config{})
	return env, reg, cpu
}

func TestSingleThreadRunTime(t *testing.T) {
	env, reg, cpu := newCPU(t, 1, ghz)
	th := cpu.NewThread("worker", "vm")
	var done time.Duration
	env.Go("p", func(p *sim.Proc) {
		th.Run(p, 10_000_000, "work") // 10M cycles at 1GHz = 10ms
		done = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// 10ms of work plus wake latency and context switch; well under 11ms.
	if done < 10*time.Millisecond || done > 11*time.Millisecond {
		t.Fatalf("10M cycles at 1GHz finished at %v", done)
	}
	if got := reg.Cycles("vm", "work"); got != 10_000_000 {
		t.Fatalf("charged %d cycles, want 10M", got)
	}
	if th.Consumed() < 10_000_000 {
		t.Fatalf("Consumed = %d", th.Consumed())
	}
}

func TestFrequencyScalesTime(t *testing.T) {
	run := func(freq int64) time.Duration {
		env := sim.NewEnv(1)
		cpu := New(env, metrics.NewRegistry(), 1, freq, Config{})
		th := cpu.NewThread("w", "vm")
		var done time.Duration
		env.Go("p", func(p *sim.Proc) {
			th.Run(p, 32_000_000, "work")
			done = env.Now()
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	slow := run(1_600_000_000) // 1.6 GHz
	fast := run(3_200_000_000) // 3.2 GHz
	ratio := float64(slow) / float64(fast)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("1.6GHz/3.2GHz time ratio = %v, want ~2", ratio)
	}
}

func TestFairShareTwoThreadsOneCore(t *testing.T) {
	env, reg, cpu := newCPU(t, 1, ghz)
	const work = 50_000_000 // 50ms each at 1GHz
	var finish [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		th := cpu.NewThread(fmt.Sprintf("w%d", i), fmt.Sprintf("vm%d", i))
		env.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			th.Run(p, work, "work")
			finish[i] = env.Now()
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Both need 50ms of CPU on one core: total ~100ms, and fair share means
	// both finish near the end (neither finishes at 50ms).
	for i, f := range finish {
		if f < 95*time.Millisecond || f > 110*time.Millisecond {
			t.Fatalf("thread %d finished at %v, want ~100ms (fair share)", i, f)
		}
	}
	if got := reg.Cycles("vm0", "work") + reg.Cycles("vm1", "work"); got != 2*work {
		t.Fatalf("total charged %d, want %d", got, 2*work)
	}
}

func TestTwoCoresRunInParallel(t *testing.T) {
	env, _, cpu := newCPU(t, 2, ghz)
	const work = 50_000_000
	var maxFinish time.Duration
	for i := 0; i < 2; i++ {
		th := cpu.NewThread(fmt.Sprintf("w%d", i), "vm")
		env.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			th.Run(p, work, "work")
			if env.Now() > maxFinish {
				maxFinish = env.Now()
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if maxFinish > 55*time.Millisecond {
		t.Fatalf("parallel finish at %v, want ~50ms", maxFinish)
	}
}

func TestWorkFIFOWithinThread(t *testing.T) {
	env, _, cpu := newCPU(t, 1, ghz)
	th := cpu.NewThread("w", "vm")
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		th.Post(1000, "work", func() { order = append(order, i) })
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order = %v", order)
		}
	}
}

func TestPostZeroCompletesImmediately(t *testing.T) {
	env, _, cpu := newCPU(t, 1, ghz)
	th := cpu.NewThread("w", "vm")
	called := false
	th.Post(0, "work", func() { called = true })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("onDone not called for zero-cycle post")
	}
	if th.Consumed() != 0 {
		t.Fatalf("Consumed = %d", th.Consumed())
	}
}

// TestSleeperWakeLatencyLow: a long-sleeping thread that wakes once gets to
// run almost immediately even on a fully busy machine (sleeper credit +
// wakeup preemption) — faithful CFS behavior.
func TestSleeperWakeLatencyLow(t *testing.T) {
	env := sim.NewEnv(1)
	cpu := New(env, metrics.NewRegistry(), 1, ghz, Config{})
	hog := cpu.NewThread("hog", "hog")
	env.Go("hog", func(p *sim.Proc) {
		for j := 0; j < 100; j++ {
			hog.Run(p, 5_000_000, "burn")
		}
	})
	io := cpu.NewThread("io", "io")
	var latency time.Duration
	env.Go("waker", func(p *sim.Proc) {
		p.Sleep(20 * time.Millisecond)
		start := env.Now()
		io.Run(p, 50_000, "io-work") // 50µs of work
		latency = env.Now() - start
		env.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Close()
	if latency > 500*time.Microsecond {
		t.Fatalf("sleeper wake-to-done latency = %v, want <500µs", latency)
	}
}

// TestChainThroughputUnderContention is the essence of Figure 3: a sustained
// ping-pong between two moderately busy threads (a netperf-like
// request/response chain) slows down when CPU hogs keep all cores busy,
// because the chain threads are not "sleepers" — their vruntime tracks the
// hogs', so wakeup preemption often fails and they wait in runqueues.
func TestChainThroughputUnderContention(t *testing.T) {
	measure := func(hogs int) time.Duration {
		env := sim.NewEnv(1)
		cpu := New(env, metrics.NewRegistry(), 2, ghz, Config{})
		for i := 0; i < hogs; i++ {
			hog := cpu.NewThread(fmt.Sprintf("hog%d", i), "hog")
			env.Go(fmt.Sprintf("hog%d", i), func(p *sim.Proc) {
				for env.Now() < 400*time.Millisecond {
					hog.Run(p, 2_000_000, "burn") // 2ms chunks, never idle
				}
			})
		}
		a := cpu.NewThread("a", "chain")
		b := cpu.NewThread("b", "chain")
		var elapsed time.Duration
		env.Go("chain", func(p *sim.Proc) {
			start := env.Now()
			const hops = 300
			for i := 0; i < hops; i++ {
				a.Run(p, 100_000, "hop") // 100µs each side
				b.Run(p, 100_000, "hop")
			}
			elapsed = env.Now() - start
			env.Stop()
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Close()
		return elapsed
	}
	idle := measure(0)
	contended := measure(2)
	ratio := float64(contended) / float64(idle)
	if ratio < 1.05 {
		t.Fatalf("contended/idle chain time = %.2f (%v vs %v); expected visible slowdown", ratio, contended, idle)
	}
	if ratio > 20 {
		t.Fatalf("contended/idle chain time = %.2f; implausibly large", ratio)
	}
}

// TestWakeupPreemption: a far-behind waking thread preempts a long-running
// hog rather than waiting for the hog to finish its work.
func TestWakeupPreemption(t *testing.T) {
	env, _, cpu := newCPU(t, 1, ghz)
	hog := cpu.NewThread("hog", "hog")
	io := cpu.NewThread("io", "io")
	var ioDone time.Duration
	env.Go("hog", func(p *sim.Proc) {
		hog.Run(p, 500_000_000, "burn") // 500ms
	})
	env.Go("io", func(p *sim.Proc) {
		p.Sleep(100 * time.Millisecond) // hog has 100ms of vruntime
		io.Run(p, 100_000, "io")        // 100µs
		ioDone = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Preemption should let io finish long before the hog's 500ms.
	if ioDone > 120*time.Millisecond {
		t.Fatalf("io finished at %v; wakeup preemption not working", ioDone)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	env, reg, cpu := newCPU(t, 2, ghz)
	th := cpu.NewThread("w", "vm")
	reg.MarkWindow(0)
	env.Go("p", func(p *sim.Proc) {
		th.Run(p, 100_000_000, "work") // 100ms of one core
	})
	if err := env.RunUntil(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	u := reg.Utilization("vm", "work", env.Now(), ghz)
	if math.Abs(u-0.5) > 0.02 { // 100ms busy over 200ms window
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
	env.Close()
}

func TestMultipleProcsShareOneThread(t *testing.T) {
	// A 1-vCPU guest: two processes' work serializes on the single thread.
	env, _, cpu := newCPU(t, 4, ghz) // plenty of cores; the thread is the bottleneck
	th := cpu.NewThread("vcpu", "vm")
	var finish [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		env.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			th.Run(p, 50_000_000, "work")
			finish[i] = env.Now()
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// FIFO within the thread: first ~50ms, second ~100ms despite 4 cores.
	if finish[0] > 60*time.Millisecond || finish[1] < 95*time.Millisecond {
		t.Fatalf("finish times %v; vCPU work should serialize", finish)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() string {
		env := sim.NewEnv(9)
		reg := metrics.NewRegistry()
		cpu := New(env, reg, 2, ghz, Config{})
		trace := ""
		for i := 0; i < 4; i++ {
			i := i
			th := cpu.NewThread(fmt.Sprintf("t%d", i), fmt.Sprintf("e%d", i))
			env.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
				for j := 0; j < 10; j++ {
					th.Run(p, int64(1_000_000*(i+1)), "w")
					p.Sleep(time.Duration(i) * 100 * time.Microsecond)
				}
				trace += fmt.Sprintf("%d@%v;", i, env.Now())
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic schedule:\n%s\n%s", a, b)
	}
}

func TestCyclesDurRoundTrip(t *testing.T) {
	f := func(raw uint32, pick uint8) bool {
		freqs := []int64{1_600_000_000, 2_000_000_000, 3_200_000_000}
		freq := freqs[int(pick)%len(freqs)]
		env := sim.NewEnv(1)
		cpu := New(env, metrics.NewRegistry(), 1, freq, Config{})
		cycles := int64(raw)
		d := cpu.DurFor(cycles)
		// Running for DurFor(cycles) must cover at least cycles of work.
		return cpu.CyclesFor(d) >= cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: total cycles charged to the registry always equals total cycles
// posted, for arbitrary work mixes on arbitrary core counts.
func TestConservationOfCyclesProperty(t *testing.T) {
	f := func(works []uint16, coreSeed uint8) bool {
		if len(works) == 0 {
			return true
		}
		cores := 1 + int(coreSeed%4)
		env := sim.NewEnv(5)
		reg := metrics.NewRegistry()
		cpu := New(env, reg, cores, ghz, Config{CtxSwitchCycles: -1}) // -1 disables, isolating posted work
		var total int64
		for i, w := range works {
			th := cpu.NewThread(fmt.Sprintf("t%d", i), "e")
			cycles := int64(w) + 1
			total += cycles
			th.Post(cycles, "w", nil)
		}
		if err := env.Run(); err != nil {
			return false
		}
		return reg.Cycles("e", "w") == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripZeroAlloc asserts that steady-state RunT and PostT round trips
// allocate nothing: work items live by value in the thread's FIFO, RunT
// waits on its Proc's own completion (sim.Proc.Arm), and the scheduler's
// callbacks are bound once. Two
// threads share one core, so every round trip also context-switches and
// pays the cache-cold charge.
func TestRoundTripZeroAlloc(t *testing.T) {
	for _, post := range []bool{false, true} {
		t.Run(fmt.Sprintf("post=%v", post), func(t *testing.T) {
			env, _, cpu := newCPU(t, 1, ghz)
			defer env.Close()
			var threads []*Thread
			for i := 0; i < 2; i++ {
				th := cpu.NewThread(fmt.Sprintf("t%d", i), "vm")
				threads = append(threads, th)
				var sig sim.Signal
				done := 0
				onDone := func() { done++; sig.Signal() }
				env.Go(th.Name(), func(p *sim.Proc) {
					for {
						if !post {
							th.RunT(p, 2000, metrics.TagOthers, nil)
							continue
						}
						target := done + 4
						for j := 0; j < 4; j++ {
							th.PostT(500, metrics.TagOthers, nil, onDone)
						}
						for done < target {
							sig.Wait(p)
						}
					}
				})
			}
			// Warm up: event free list and work rings.
			if err := env.RunFor(10 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			before := threads[0].Consumed() + threads[1].Consumed()
			allocs := testing.AllocsPerRun(1000, func() {
				if err := env.RunFor(10 * time.Microsecond); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("round trip allocates %v objects at steady state, want 0", allocs)
			}
			// 1001 runs of 10µs at 1 GHz: most of 10M cycles, if work flowed.
			if got := threads[0].Consumed() + threads[1].Consumed() - before; got < 5_000_000 {
				t.Fatalf("threads consumed %d cycles while measured, want most of 10M", got)
			}
		})
	}
}

// TestSchedulerCyclesLandInOthers pins where scheduler-injected cycles are
// charged: context switches and cache refills are ordinary "others" work
// on the incoming thread's entity, so each thread's lifetime consumption
// is exactly its entity's registry total, posted work keeps its own tag,
// and with both charges disabled "others" is empty.
func TestSchedulerCyclesLandInOthers(t *testing.T) {
	const rounds, work = 20, 300_000
	tags := [2]string{"app", "io"}
	run := func(cfg Config) (*metrics.Registry, [2]*Thread) {
		env := sim.NewEnv(1)
		reg := metrics.NewRegistry()
		cpu := New(env, reg, 1, ghz, cfg)
		ths := [2]*Thread{cpu.NewThread("a", "vm-a"), cpu.NewThread("b", "vm-b")}
		for i, th := range ths {
			th, tag := th, tags[i]
			env.Go(th.Name(), func(p *sim.Proc) {
				for r := 0; r < rounds; r++ {
					th.Run(p, work, tag)
					p.Sleep(50 * time.Microsecond)
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return reg, ths
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		others bool
	}{
		{"defaults", Config{}, true},
		{"disabled", Config{CtxSwitchCycles: -1, CacheColdCycles: -1}, false},
	} {
		reg, ths := run(tc.cfg)
		for i, th := range ths {
			e, tag := th.Entity(), tags[i]
			if got, want := reg.EntityCycles(e), th.Consumed(); got != want {
				t.Errorf("%s: %s registry total %d, Consumed %d", tc.name, e, got, want)
			}
			if got := reg.Cycles(e, tag); got != rounds*work {
				t.Errorf("%s: %s/%s = %d, want %d", tc.name, e, tag, got, rounds*work)
			}
			others := reg.Cycles(e, metrics.TagOthers)
			if rest := reg.EntityCycles(e) - reg.Cycles(e, tag) - others; rest != 0 {
				t.Errorf("%s: %s has %d cycles under tags other than %q and others (%v)", tc.name, e, rest, tag, reg.Tags(e))
			}
			if tc.others && others == 0 {
				t.Errorf("%s: %s has no scheduler-injected others cycles", tc.name, e)
			}
			if !tc.others && others != 0 {
				t.Errorf("%s: %s others = %d with scheduler charges disabled", tc.name, e, others)
			}
		}
	}
}
