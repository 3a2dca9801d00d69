package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"vread/bench/stats"
	"vread/internal/experiments"
)

// traceMetrics are the per-layer metrics only a traced run reports: host
// CPU by layer from the profiled passes, the profiler's overhead, the
// sharded engine's K=1 vs K=2 wall clock and the layer microbenchmarks.
func traceMetrics(seed int64, plain, profiled []pass, profile []byte) (map[string]value, error) {
	m := make(map[string]value)
	listing, err := pprofTraces(profile)
	if err != nil {
		return nil, err
	}
	shares, cpu, err := rollUp(listing)
	if err != nil {
		return nil, err
	}
	for _, b := range hostBuckets {
		m["host."+b+"_pct"] = value{shares[b], "%"}
	}
	m["host.profiled_cpu_s"] = value{cpu, "s"}
	m["trace.overhead_pct"] = value{100 * (medianWall(profiled)/medianWall(plain) - 1), "%"}

	k1, k2, err := shardSpeedup(seed)
	if err != nil {
		return nil, err
	}
	m["shard.k1_wall_s"] = value{k1, "s"}
	m["shard.k2_wall_s"] = value{k2, "s"}
	m["shard.speedup_k2"] = value{k1 / k2, "ratio"}

	for _, mb := range micros {
		ns, allocs, err := mb.run()
		if err != nil {
			return nil, fmt.Errorf("microbenchmark %s: %w", mb.name, err)
		}
		s := stats.Summarize(ns)
		m[mb.name+"_ns"] = value{s.Median, "ns"}
		m[mb.name+"_p90_ns"] = value{s.Tail, "ns"}
		m[mb.name+"_allocs"] = value{allocs, "count"}
	}
	return m, nil
}

func medianWall(passes []pass) float64 {
	var xs []float64
	for _, ps := range passes {
		xs = append(xs, ps.timed.wall.Seconds())
	}
	return stats.Median(xs)
}

// shardGridConfig is RunShardGrid's default 1×4×4 topology: 4 client hosts
// × 4 closed-loop streams of 256 KiB reads, at each shard count.
func shardGridConfig(seed int64, reads int, shards ...int) experiments.ShardGridConfig {
	return experiments.ShardGridConfig{
		Seed:           seed,
		Domains:        1,
		RacksPerDomain: 4,
		HostsPerRack:   4,
		ClientHosts:    4,
		StreamsPerHost: 4,
		ReadsPerStream: reads,
		Deadline:       time.Duration(reads) * 8 * time.Millisecond,
		Shards:         shards,
	}
}

// shardSpeedup runs a small shard grid at K=1 and K=2 three times and
// returns the median wall seconds of each; the two must agree on every
// simulated row. It is the benchmark's only multi-core measurement, so it
// runs with GOMAXPROCS = min(2, CPUs) and restores the caller's setting.
func shardSpeedup(seed int64) (k1, k2 float64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(2, runtime.NumCPU())))
	var w1, w2 []float64
	for i := 0; i < 3; i++ {
		cells, err := experiments.RunShardGrid(shardGridConfig(seed, 1000, 1, 2))
		if err != nil {
			return 0, 0, err
		}
		if cells[0].Fingerprint != cells[1].Fingerprint {
			return 0, 0, fmt.Errorf("shard grid: K=2 fingerprint %#x differs from K=1 %#x", cells[1].Fingerprint, cells[0].Fingerprint)
		}
		w1 = append(w1, cells[0].Wall.Seconds())
		w2 = append(w2, cells[1].Wall.Seconds())
	}
	return stats.Median(w1), stats.Median(w2), nil
}

// pprofTraces renders a CPU profile with `go tool pprof -traces`. The
// profile goes to a temporary file (under .bench_build/ when started by
// run.sh), removed afterwards.
func pprofTraces(profile []byte) (string, error) {
	f, err := os.CreateTemp("", "vread-bench-*.pprof")
	if err != nil {
		return "", err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(profile)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write profile: %w", err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", f.Name())
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go tool pprof -traces: %w: %s", err, stderr.String())
	}
	return stdout.String(), nil
}

// Frames that put a sample in a runtime bucket whatever else is on its
// stack. GC is checked before allocation because assists run inside
// mallocgc.
var (
	gcFrames = map[string]bool{
		"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true,
		"runtime.bgsweep": true, "runtime.bgscavenge": true, "runtime.GC": true,
	}
	schedFrames = map[string]bool{
		"runtime.chansend": true, "runtime.chanrecv": true, "runtime.selectgo": true,
		"runtime.gopark": true, "runtime.goready": true, "runtime.mcall": true,
		"runtime.park_m": true, "runtime.schedule": true, "runtime.newproc": true,
		"runtime.goexit0": true,
	}
)

// rollUp charges every sample of a `go tool pprof -traces` listing to one
// bucket of hostBuckets and returns each bucket's share of the listing's
// total in percent, and that total in seconds. A sample's stack (leaf
// first) decides:
//   - under a GC worker, an assist, the sweeper or runtime.GC: runtime_gc;
//   - else under runtime.mallocgc: runtime_malloc;
//   - else under a channel operation, park or the scheduler, or with no
//     frame outside the runtime: runtime_sched;
//   - else the nearest frame in vread/internal/<pkg>: that package's
//     bucket (so memmove or map access called from a layer is the layer's
//     own time); a stack with none is other.
func rollUp(listing string) (map[string]float64, float64, error) {
	totals := make(map[string]time.Duration)
	var total time.Duration
	for _, block := range strings.Split(listing, "-----------+") {
		var frames []string
		var d time.Duration
		for _, line := range strings.Split(block, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 || strings.HasPrefix(fields[0], "---") {
				continue
			}
			if frames == nil {
				v, err := time.ParseDuration(fields[0])
				if err != nil || len(fields) < 2 {
					break // the listing's header, not a sample
				}
				d = v
				line = strings.TrimSpace(line)[len(fields[0]):]
			}
			frames = append(frames, strings.TrimSuffix(strings.TrimSpace(line), " (inline)"))
		}
		if frames == nil {
			continue
		}
		totals[bucketOf(frames)] += d
		total += d
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof listing holds no samples")
	}
	shares := make(map[string]float64)
	for b, d := range totals {
		shares[b] = 100 * float64(d) / float64(total)
	}
	return shares, total.Seconds(), nil
}

func bucketOf(frames []string) string {
	for _, f := range frames {
		if gcFrames[f] {
			return "runtime_gc"
		}
	}
	for _, f := range frames {
		if f == "runtime.mallocgc" {
			return "runtime_malloc"
		}
	}
	outside := false
	for _, f := range frames {
		if schedFrames[f] {
			return "runtime_sched"
		}
		outside = outside || !isRuntime(pkgOf(f))
	}
	if !outside {
		return "runtime_sched"
	}
	for _, f := range frames {
		if pkg, ok := strings.CutPrefix(pkgOf(f), "vread/internal/"); ok {
			if pkg == "sim/shard" {
				return "shard"
			}
			pkg, _, _ = strings.Cut(pkg, "/")
			for _, b := range hostBuckets {
				if b == pkg {
					return b
				}
			}
			return "other"
		}
	}
	return "other"
}

// pkgOf is the import path of a profiled function name such as
// "vread/internal/sim.(*Queue[...]).Get" or "runtime.mallocgc".
func pkgOf(fn string) string {
	if i := strings.IndexAny(fn, "([ "); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// isRuntime reports whether pkg is the Go runtime itself; runtime/pprof and
// runtime/metrics are ordinary libraries.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}
