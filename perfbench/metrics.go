package main

import (
	"fmt"
	"runtime"
	"sort"
)

// metricDef names a metric and its unit. BENCHMARK.json at the repository
// root lists the same names and units; TestBenchmarkJSONMatches keeps the
// two in step.
type metricDef struct {
	name string
	unit string
	// path says which workloads run through the metric's layer: "sim",
	// "live" or "" for both. A traced run of a workload off the layer's
	// path reports the metric as 0 (no work was done there) and notes it.
	path string
}

// endToEndMetrics are measured with tracing off on every workload.
var endToEndMetrics = []metricDef{
	{name: "txn_per_s", unit: "1/s"},
	{name: "rt_p50_ms", unit: "ms"},
	{name: "setup_s", unit: "s"},
	{name: "retained_heap_mb", unit: "MB"},
}

// perLayerMetrics are measured by the traced run. The prefix before the
// first dot is the module (layer) the metric belongs to.
var perLayerMetrics = []metricDef{
	// Simulator: host cost of Engine.Run.
	{name: "hybrid.run_s", unit: "s", path: "sim"},
	{name: "hybrid.allocs_per_txn", unit: "allocs/txn", path: "sim"},
	{name: "hybrid.alloc_bytes_per_txn", unit: "B/txn", path: "sim"},
	{name: "hybrid.gc_cycles", unit: "count", path: "sim"},
	{name: "sim.group_speedup", unit: "x", path: "sim"},
	// Simulated work and waste per committed transaction.
	{name: "cpu.util_central", unit: "fraction", path: "sim"},
	{name: "cpu.util_local_mean", unit: "fraction", path: "sim"},
	{name: "cpu.queue_central", unit: "jobs", path: "sim"},
	{name: "cpu.queue_local", unit: "jobs", path: "sim"},
	{name: "lock.wait_mean_s", unit: "sim-s", path: "sim"},
	{name: "lock.waits_per_txn", unit: "1/txn", path: "sim"},
	{name: "hybrid.commit_ratio", unit: "fraction", path: "sim"},
	{name: "hybrid.aborts_per_txn", unit: "1/txn", path: "sim"},
	{name: "comm.msgs_per_txn", unit: "msgs/txn", path: "sim"},
	{name: "hybrid.auth_rounds_per_txn", unit: "1/txn", path: "sim"},
	{name: "hybrid.cold_fetches_per_txn", unit: "1/txn", path: "sim"},
	// Routing and workload generation: on both paths.
	{name: "routing.decide_calls", unit: "count"},
	{name: "routing.decide_ns", unit: "ns"},
	{name: "routing.ship_fraction", unit: "fraction"},
	{name: "workload.next_ns", unit: "ns"},
	// Wire codec: a standalone round trip built from the workload's
	// transactions, on both paths.
	{name: "netx.encode_ns", unit: "ns"},
	{name: "netx.decode_ns", unit: "ns"},
	// Event loop owned by the benchmark.
	{name: "exec.post_us", unit: "us"},
	{name: "exec.timer_late_us", unit: "us"},
	// Live cluster.
	{name: "netx.frames_per_txn", unit: "frames/txn", path: "live"},
	{name: "netx.bytes_per_txn", unit: "B/txn", path: "live"},
	{name: "cluster.site_rt_mean_ms", unit: "ms", path: "live"},
	{name: "cluster.client_overhead_ms", unit: "ms", path: "live"},
	{name: "cluster.rt_p99_ms", unit: "ms", path: "live"},
	{name: "cluster.central_queue_depth", unit: "jobs", path: "live"},
	{name: "cluster.site_queue_depth", unit: "jobs", path: "live"},
	{name: "cluster.ship_fraction", unit: "fraction", path: "live"},
	{name: "cluster.aborts_per_txn", unit: "1/txn", path: "live"},
	{name: "cluster.auth_rounds_per_txn", unit: "1/txn", path: "live"},
	// Cost of the traced run's own instrumentation.
	{name: "trace.overhead_pct", unit: "%"},
}

func perLayerUnit(name string) string {
	for _, m := range perLayerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic(fmt.Sprintf("perfbench: unregistered per-layer metric %q", name))
}

// offPath reports 0 for every per-layer metric whose layer the workload
// (of kind "sim" or "live") does not run through, and notes which.
func (r *run) offPath(kind string) {
	var off []string
	for _, m := range perLayerMetrics {
		if m.path != "" && m.path != kind {
			r.layer(m.name, 0)
			off = append(off, m.name)
		}
	}
	if len(off) > 0 {
		r.note("not on this workload's path, reported as 0: %v", off)
	}
}

// ---- Small statistics helpers.

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, computed exactly from the raw samples (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
