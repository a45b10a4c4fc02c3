package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names;
// TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"; end-to-end metrics only
}

// endToEnd metrics are what a user of the simulator sees. Every workload
// reports all of them (--trace 0); README.md says what each means on each
// workload.
var endToEnd = []metricDef{
	{"sim_kcycles_per_s", "kcycles/s", "higher"},
	{"sweep_p50_s", "s", "lower"},
	{"sweep_p90_s", "s", "lower"},
	{"sweep_goodput_per_s", "1/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"ops_ok_frac", "frac", "higher"},
	{"cycle_err_pct", "%", "lower"},
}

// perLayer metrics come from the traced run (--trace 1). Counts repeat
// exactly for a fixed seed; timings are host-dependent.
var perLayer = []metricDef{
	{name: "trace.read_ms_per_mb", unit: "ms/MB"},
	{name: "trace.write_ms_per_mb", unit: "ms/MB"},
	{name: "trace.cpu_share", unit: "frac"},
	{name: "workload.generate_ms", unit: "ms"},
	{name: "reuse.profile_ms", unit: "ms"},
	{name: "reuse.profile_share", unit: "frac"},
	{name: "reuse.cpu_share", unit: "frac"},
	{name: "sim.wall_ms", unit: "ms"},
	{name: "sim.ticked_cycles", unit: "count"},
	{name: "sim.skipped_cycles", unit: "count"},
	{name: "sim.skip_ratio", unit: "frac"},
	{name: "engine.ns_per_ticked_cycle", unit: "ns"},
	{name: "engine.cpu_share", unit: "frac"},
	{name: "engine.barrier_cpu_share", unit: "frac"},
	{name: "sm.issued", unit: "count"},
	{name: "sm.stall", unit: "count"},
	{name: "smcore.cpu_share", unit: "frac"},
	{name: "l1.access", unit: "count"},
	{name: "l1.hit_ratio", unit: "frac"},
	{name: "l1.mshr_merge", unit: "count"},
	{name: "l2.access", unit: "count"},
	{name: "l2.hit_ratio", unit: "frac"},
	{name: "cache.cpu_share", unit: "frac"},
	{name: "noc.request", unit: "count"},
	{name: "noc.stall", unit: "count"},
	{name: "noc.cpu_share", unit: "frac"},
	{name: "dram.read", unit: "count"},
	{name: "dram.write", unit: "count"},
	{name: "dram.row_hit_ratio", unit: "frac"},
	{name: "dram.cpu_share", unit: "frac"},
	{name: "regress.canonical_ms", unit: "ms"},
	{name: "service.admit_p50_ms", unit: "ms"},
	{name: "service.admit_p90_ms", unit: "ms"},
	{name: "service.queue_wait_ms", unit: "ms"},
	{name: "service.cache_hit_ratio", unit: "frac"},
	{name: "service.shed", unit: "count"},
	{name: "service.cpu_share", unit: "frac"},
	{name: "lease.claimed", unit: "count"},
	{name: "lease.expired", unit: "count"},
	{name: "lease.stale", unit: "count"},
	{name: "worker.failed", unit: "count"},
	{name: "worker.lost", unit: "count"},
	{name: "store.puts", unit: "count"},
	{name: "store.gets", unit: "count"},
	{name: "store.put_ms", unit: "ms"},
	{name: "store.get_ms", unit: "ms"},
	{name: "snap.encode_ms", unit: "ms"},
	{name: "snap.restore_ms", unit: "ms"},
	{name: "snap.bytes", unit: "bytes"},
	{name: "go.mallocs_per_op", unit: "count"},
	{name: "go.alloc_mb_per_op", unit: "MB"},
	{name: "go.gc_cpu_share", unit: "frac"},
	{name: "runtime.cpu_share", unit: "frac"},
	{name: "loadgen.lag_p99_ms", unit: "ms"},
	{name: "obs.trace_overhead_frac", unit: "frac"},
	{name: "ops_failed_frac", unit: "frac"},
}

// workCounters are the per-layer metrics that repeat exactly for a fixed
// seed: the self-test compares them across two runs.
var workCounters = []string{
	"sim.ticked_cycles", "sim.skipped_cycles", "sm.issued", "sm.stall",
	"l1.access", "l1.mshr_merge", "l2.access", "noc.request", "noc.stall",
	"dram.read", "dram.write", "service.shed", "lease.claimed",
	"lease.expired", "lease.stale", "worker.failed", "worker.lost",
	"store.puts", "store.gets", "snap.bytes",
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0 (a layer with no traffic).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
