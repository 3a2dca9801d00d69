package main

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root lists the same metrics, with the regression bounds of the end-to-end
// ones; a test keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of an untraced run: per-cell medians over its
// timed passes of seconds scaled to the reference host's speed, summed over
// the cells, except the process-wide peak_rss_mb.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// hostBuckets are the layers a profiled sample's CPU time is charged to:
// this repository's internal packages, three runtime buckets, and other.
var hostBuckets = []string{
	"sim", "shard", "par", "cpusched", "virtio", "guest", "netsim", "storage",
	"fsim", "data", "core", "hdfs", "mapred", "workload", "metrics", "trace",
	"faults", "cluster", "experiments",
	"runtime_gc", "runtime_malloc", "runtime_sched", "other",
}

// modelNames are modelOf's keys, in report order.
var modelNames = []string{
	"disk_reads", "disk_bytes_read", "disk_writes", "host_cache_hit_bytes",
	"host_cache_miss_bytes", "guest_cache_hit_bytes", "nic_tx_frames",
	"rdma_cycles", "ring_opens", "bytes_local", "bytes_remote",
}

// modelBetter is the direction a model count would move for a better-
// performing model; a change that only speeds up the simulator leaves every
// count identical.
var modelBetter = map[string]string{
	"host_cache_hit_bytes": "higher", "guest_cache_hit_bytes": "higher", "bytes_local": "higher",
}

// perLayer are the metrics of a traced run.
func perLayer() []metricDef {
	var ms []metricDef
	add := func(name, unit, better string) {
		ms = append(ms, metricDef{name, unit, better})
	}
	for _, b := range hostBuckets {
		add("host."+b+"_pct", "%", "lower")
	}
	add("host.profiled_cpu_s", "s", "lower")
	add("trace.overhead_pct", "%", "lower")
	add("phase.build_s", "s", "lower")
	add("sim.events", "count", "lower")
	add("sim.events_per_s", "1/s", "higher")
	add("runtime.allocs_per_event", "count", "lower")
	add("runtime.alloc_bytes_per_event", "B", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("runtime.gc_cpu_pct", "%", "lower")
	for _, n := range modelNames {
		better := modelBetter[n]
		if better == "" {
			better = "lower"
		}
		add("model."+n, "count", better)
	}
	add("shard.k1_wall_s", "s", "lower")
	add("shard.k2_wall_s", "s", "lower")
	add("shard.speedup_k2", "ratio", "higher")
	for _, mb := range micros {
		add(mb.name+"_ns", "ns", "lower")
		add(mb.name+"_p90_ns", "ns", "lower")
		add(mb.name+"_allocs", "count", "lower")
	}
	return ms
}

// reported lists the metrics of the benchmark's last output line.
func reported(traced bool) []metricDef {
	if traced {
		return perLayer()
	}
	return endToEnd
}
