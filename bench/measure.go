package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// snap is the host's counters at one instant: the wall clock, the Go heap's
// cumulative allocation counters and the runtime's GC counters. The
// benchmark takes one at every phase boundary and subtracts.
type snap struct {
	wall       time.Time
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // runtime estimate, seconds
	totalCPU   float64 // runtime estimate, seconds; the base gcCPU is a share of
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnap() snap {
	metrics.Read(runtimeSamples)
	s := runtimeSamples
	return snap{
		wall:       time.Now(),
		allocs:     s[0].Value.Uint64() + s[1].Value.Uint64(),
		allocBytes: s[2].Value.Uint64(),
		gcCycles:   s[3].Value.Uint64(),
		gcCPU:      s[4].Value.Float64(),
		totalCPU:   s[5].Value.Float64(),
	}
}

// span accumulates the host counters of timed phases.
type span struct {
	wall               time.Duration
	allocs, allocBytes uint64
	gcCycles           uint64
	gcCPU, totalCPU    float64
}

func (s *span) add(from, to snap) {
	s.wall += to.wall.Sub(from.wall)
	s.allocs += to.allocs - from.allocs
	s.allocBytes += to.allocBytes - from.allocBytes
	s.gcCycles += to.gcCycles - from.gcCycles
	s.gcCPU += to.gcCPU - from.gcCPU
	s.totalCPU += to.totalCPU - from.totalCPU
}

// peakRSSMB is the process's resident-set high-water mark in MB: VmHWM of
// /proc/self/status. getrusage's ru_maxrss would be wrong here: Linux carries
// it across exec, so a launcher forked from a large parent (bench/run.sh
// started from Python, say) would report the parent's size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return float64(kb) * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}
