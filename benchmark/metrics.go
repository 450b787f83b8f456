package main

import (
	"fmt"
	"math"
	"sort"

	"fusedcc/internal/graph"
	"fusedcc/internal/serve"
	"fusedcc/internal/sim"
)

// metricDef names one metric the benchmark reports. BENCHMARK.json lists
// the same names, units and directions (a test keeps the two in step);
// the bounds live only there.
type metricDef struct {
	name, unit string
	// lower: a lower value is better.
	lower bool
	// e2e marks the end-to-end metrics, reported by every untraced run;
	// the rest are per-layer metrics, reported by traced runs.
	e2e bool
	// outcome marks simulated end-to-end results. They repeat exactly for
	// a given workload and seed, so -compare holds them to equality.
	outcome bool
}

// Units: "s", "ms", "ns" and "MB" are host measurements; "sim_us",
// "sim_ms" and "req/sim_s" are read off the simulated clock.
var metricTable = []metricDef{
	// End to end, host clock.
	{name: "setup_s", unit: "s", lower: true, e2e: true},
	{name: "wall_s", unit: "s", lower: true, e2e: true},
	{name: "peak_rss_mb", unit: "MB", lower: true, e2e: true},

	// End-to-end results on the simulated clock.
	{name: "lat_p50_us", unit: "sim_us", lower: true, outcome: true},
	{name: "lat_p90_us", unit: "sim_us", lower: true, outcome: true},
	{name: "lat_p99_us", unit: "sim_us", lower: true, outcome: true},
	{name: "goodput_rps", unit: "req/sim_s", outcome: true},
	{name: "failed_frac", unit: "ratio", lower: true, outcome: true},
	{name: "iter_ms", unit: "sim_ms", lower: true, outcome: true},

	// sim: the event engine and the bandwidth servers.
	{name: "sim.events", unit: "count", lower: true},
	{name: "sim.host_ns_per_event", unit: "ns", lower: true},
	{name: "sim.handoff_frac", unit: "ratio"},
	{name: "sim.pool_hits_per_event", unit: "ratio"},
	{name: "sim.max_heap_depth", unit: "count", lower: true},
	{name: "sim.windows", unit: "count", lower: true},
	{name: "sim.barrier_stalls", unit: "count", lower: true},
	{name: "sim.resource.host_self_frac", unit: "ratio", lower: true},
	{name: "sim.engine.host_self_frac", unit: "ratio", lower: true},

	// gpu and kernels: the device model.
	{name: "gpu.compute_busy_frac", unit: "ratio", lower: true},
	{name: "gpu.comm_busy_frac", unit: "ratio", lower: true},
	{name: "gpu.stream_overlap_frac", unit: "ratio"},
	{name: "gpu.stream_wait_us", unit: "sim_us", lower: true},
	{name: "gpu.kernels", unit: "count", lower: true},
	{name: "gpu.hbm_busy_frac", unit: "ratio", lower: true},
	{name: "gpu.hbm_gb", unit: "GB", lower: true},
	{name: "gpu.alu_busy_frac", unit: "ratio", lower: true},
	{name: "gpu.host_self_frac", unit: "ratio", lower: true},
	{name: "kernels.host_self_frac", unit: "ratio", lower: true},

	// fabric, netsim, core: the interconnects and the fused operators.
	{name: "fabric.gb", unit: "GB", lower: true},
	{name: "fabric.busy_frac", unit: "ratio", lower: true},
	{name: "netsim.gb", unit: "GB", lower: true},
	{name: "netsim.busy_frac", unit: "ratio", lower: true},
	{name: "netsim.host_self_frac", unit: "ratio", lower: true},
	{name: "core.remote_puts", unit: "count", lower: true},
	{name: "core.remote_gb", unit: "GB", lower: true},
	{name: "core.host_self_frac", unit: "ratio", lower: true},

	// graph: selection, the executor and its pass cache.
	{name: "graph.idle_step_us", unit: "sim_us", lower: true},
	{name: "graph.predicted_pair_us", unit: "sim_us", lower: true},
	{name: "graph.step_p50_us", unit: "sim_us", lower: true},
	{name: "graph.step.compute_only_frac", unit: "ratio", lower: true},
	{name: "graph.step.comm_exposed_frac", unit: "ratio", lower: true},
	{name: "graph.step.overlap_frac", unit: "ratio"},
	{name: "graph.step.idle_frac", unit: "ratio", lower: true},
	{name: "graph.forms.fused", unit: "count"},
	{name: "graph.forms.eager", unit: "count", lower: true},
	{name: "graph.forms.pipelined", unit: "count"},
	{name: "graph.forms.wavefront", unit: "count"},
	{name: "graph.cache_hit_frac", unit: "ratio"},
	{name: "graph.select_host_ms", unit: "ms", lower: true},
	{name: "graph.host_self_frac", unit: "ratio", lower: true},

	// serve: admission, batching and queueing.
	{name: "serve.wait_p50_us", unit: "sim_us", lower: true},
	{name: "serve.wait_p90_us", unit: "sim_us", lower: true},
	{name: "serve.service_p50_us", unit: "sim_us", lower: true},
	{name: "serve.mean_depth", unit: "count", lower: true},
	{name: "serve.max_depth", unit: "count", lower: true},
	{name: "serve.batch_mean", unit: "count"},
	{name: "serve.gen_lag_us", unit: "sim_us", lower: true},

	// astra: the Table II training replay.
	{name: "astra.baseline_iter_ms", unit: "sim_ms", lower: true},
	{name: "astra.shards", unit: "count"},
	{name: "astra.calibrate_s", unit: "s", lower: true},

	// Set-up, host clock.
	{name: "platform.build_ms", unit: "ms", lower: true},
	{name: "model.build_ms", unit: "ms", lower: true},

	// The host and the Go runtime under the simulator.
	{name: "host.yardstick_s", unit: "s", lower: true},
	{name: "runtime.gc_cpu_frac", unit: "ratio", lower: true},
	{name: "runtime.alloc_gb", unit: "GB", lower: true},
	{name: "runtime.cpu_s", unit: "s", lower: true},
	{name: "runtime.host_self_frac", unit: "ratio", lower: true},
}

// minTail is the fewest samples a reported percentile must leave beyond
// it. With fewer, the percentile describes a handful of requests, and a
// run that served nothing would read as a perfect tail.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of samples, or an
// error when fewer than minTail samples lie beyond it.
func percentile(samples []sim.Duration, p float64) (sim.Duration, error) {
	n := len(samples)
	rank := int(math.Ceil(float64(n) * p / 100))
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p, n, beyond, minTail)
	}
	return serve.Percentile(samples, p), nil
}

// stepSplit divides one graph execution's makespan four ways: compute
// alone, communication alone (exposed), both at once (overlapped), and
// neither (idle, waiting on dependencies or streams). Fused nodes count
// as compute: their communication rides inside the kernel.
type stepSplit struct {
	computeOnly, commExposed, overlap, idle sim.Duration
}

func (s stepSplit) add(o stepSplit) stepSplit {
	return stepSplit{s.computeOnly + o.computeOnly, s.commExposed + o.commExposed, s.overlap + o.overlap, s.idle + o.idle}
}

func (s stepSplit) total() sim.Duration { return s.computeOnly + s.commExposed + s.overlap + s.idle }

// fractions returns the four parts as shares of the total.
func (s stepSplit) fractions() [4]float64 {
	t := float64(s.total())
	if t == 0 {
		return [4]float64{}
	}
	return [4]float64{float64(s.computeOnly) / t, float64(s.commExposed) / t, float64(s.overlap) / t, float64(s.idle) / t}
}

// splitStep computes the split of rep from the union of its nodes'
// intervals, clipped to the report's window.
func splitStep(rep *graph.Report) stepSplit {
	var comp, comm []interval
	for _, n := range rep.Nodes {
		iv := interval{max(n.Start, rep.Start), min(n.End, rep.End)}
		if iv.hi <= iv.lo {
			continue
		}
		if n.Kind == graph.KindCollective {
			comm = append(comm, iv)
		} else {
			comp = append(comp, iv)
		}
	}
	c, m := unionOf(comp), unionOf(comm)
	both := overlapOf(c, m)
	cl, ml := lengthOf(c), lengthOf(m)
	return stepSplit{
		computeOnly: cl - both,
		commExposed: ml - both,
		overlap:     both,
		idle:        rep.Duration() - (cl + ml - both),
	}
}

type interval struct{ lo, hi sim.Time }

// unionOf merges intervals into a sorted list of disjoint ones.
func unionOf(ivs []interval) []interval {
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].lo < sorted[j].lo })
	var out []interval
	for _, iv := range sorted {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

func lengthOf(ivs []interval) sim.Duration {
	var d sim.Duration
	for _, iv := range ivs {
		d += iv.hi.Sub(iv.lo)
	}
	return d
}

// overlapOf measures the intersection of two disjoint sorted lists.
func overlapOf(a, b []interval) sim.Duration {
	var d sim.Duration
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			d += hi.Sub(lo)
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return d
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
