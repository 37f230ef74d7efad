package main

// metricDef is one metric of the benchmark's catalogue, as listed in
// BENCHMARK.json. Bound applies to end-to-end metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics every untraced run reports, on every
// workload; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"job_s", "s", "lower", 0.25},
	{"sim_krefs_per_s", "krefs/s", "higher", 0.25},
	{"req_p50_ms", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"exec_ratio_1k", "ratio", "lower", 0},
}

// cpuLayers are the buckets CPU profile samples are charged to: the
// repository's runtime packages (with the sharded engine's files split
// out of sim as "shard"), the benchmark itself, and the runtime buckets
// for samples with no repository frame (see layerOf).
var cpuLayers = []string{
	"sim", "shard", "topo", "xbar", "flit", "cache", "node", "dirctl", "sdir",
	"mesg", "core", "workload", "trace", "tracesim", "figures", "serve",
	"swcache", "fault", "check", "bench", "gc", "sched", "net", "syscall", "runtime_other",
}

// spanNames are the benchmark-side spans around calls into the layers.
var spanNames = []string{
	"setup", "refgen", "drive", "tracegen", "tracesim", "check",
	"warm", "submit", "poll", "result",
}

// countDefs are the traced run's work counters and their direction.
var countDefs = []struct{ Name, Better string }{
	{"refs", "higher"}, {"sim_cycles", "lower"}, {"read_misses", "lower"},
	{"ctoc_home", "lower"}, {"ctoc_switch", "higher"},
	{"sdir_hits", "higher"}, {"sdir_inserts", "lower"}, {"sdir_retries", "lower"},
	{"sdir_evictions", "lower"}, {"home_reads", "lower"}, {"home_busy_cycles", "lower"},
	{"node_retries", "lower"}, {"net_msgs", "lower"}, {"flit_hops", "lower"},
	{"trace_recs", "higher"}, {"submits", "higher"}, {"hits", "higher"},
	{"misses_run", "higher"}, {"shed", "lower"}, {"throttled", "lower"}, {"polls", "lower"},
}

// machineSizes are the node counts the workloads simulate.
var machineSizes = []string{"16n", "64n", "256n", "1024n"}

// locPackages are the source trees whose line counts are tracked:
// every internal/ package (sim without the sharded engine's files,
// which count as shard) and the benchmark.
var locPackages = []string{
	"analysis", "cache", "check", "core", "dirctl", "fault", "figures", "flit",
	"mesg", "node", "sdir", "serve", "shard", "sim", "swcache", "topo", "trace",
	"tracesim", "workload", "xbar", "bench",
}

// perLayer lists every metric a traced run reports, on every workload.
// A layer a workload never enters reads 0, so layer times are given as
// shares of a measured total rather than as constant-zero seconds.
func perLayer() []metricDef {
	ms := []metricDef{{"cpu_s.total", "s", "lower", 0}}
	for _, l := range cpuLayers {
		ms = append(ms, metricDef{"cpu_pct." + l, "%", "lower", 0})
	}
	for _, s := range spanNames {
		ms = append(ms, metricDef{"span_pct." + s, "%", "lower", 0})
	}
	for _, c := range countDefs {
		ms = append(ms, metricDef{"count." + c.Name, "count", c.Better, 0})
	}
	ms = append(ms,
		metricDef{"ratio.sdir_hit", "fraction", "higher", 0},
		metricDef{"ratio.host_ns_per_ref", "ns", "lower", 0})
	for _, n := range machineSizes {
		ms = append(ms, metricDef{"ratio.exec_1k." + n, "ratio", "lower", 0})
	}
	for _, n := range machineSizes {
		ms = append(ms, metricDef{"live_heap_mb." + n, "MB", "lower", 0})
	}
	for _, p := range locPackages {
		ms = append(ms, metricDef{"loc." + p, "lines", "lower", 0})
	}
	return append(ms, metricDef{"loc.total", "lines", "lower", 0})
}
