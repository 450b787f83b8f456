package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"fusedcc/internal/sim"
)

// Each pass sets the workload up at least once and until it has spent
// setupPerPass on set-ups, then runs the last instance. A cheap set-up is
// thus timed many times over, at every point of the run.
const setupPerPass = 300 * time.Millisecond

// traceDir holds the traced run's files, relative to the working
// directory.
const traceDir = ".bench_build/trace"

// result is everything one run of one workload measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Passes    int                `json:"passes"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Failures  []string           `json:"failures,omitempty"`
	// Walls, Setups and Yardsticks are the raw host seconds of every timed
	// pass, set-up and yardstick, in the order they ran; SetupPass is the
	// pass each set-up belongs to.
	Walls      []float64 `json:"walls_s"`
	Setups     []float64 `json:"setups_s"`
	SetupPass  []int     `json:"setup_pass"`
	Yardsticks []float64 `json:"yardsticks_s"`
	Notes      []string  `json:"-"`
	// Self is the traced run's host self-time share of every layer.
	Self map[string]float64 `json:"-"`
}

// hostSample is the host side of one timed pass.
type hostSample struct {
	wall, cpu time.Duration
	gcFrac    float64
	allocGB   float64
}

// measure runs w for the given seed. Yardsticks and passes alternate,
// starting and ending with a yardstick; each pass sets up fresh
// instances and runs the last one. Passes repeat while the next one, as
// long as the last, still fits in seconds (at least one pass runs).
// Then the traced pass runs, if asked.
func measure(w workloadDef, seed int64, seconds time.Duration, traced bool) (*result, error) {
	res := &result{Workload: w.name(), Seed: seed, Traced: traced, Metrics: map[string]float64{}}
	start := hostNow()
	var (
		first   *outcome
		parts   = map[string][]float64{}
		samples []hostSample
		last    time.Duration
	)
	timeYardstick := func() {
		runtime.GC()
		res.Yardsticks = append(res.Yardsticks, yardstick().Seconds())
	}
	setupOnce := func() (pass, time.Duration, error) {
		runtime.GC()
		rec := &hostRec{}
		t0 := hostNow()
		p, err := w.setup(seed, rec)
		if err != nil {
			return nil, 0, err
		}
		d := hostNow().Sub(t0)
		res.Setups = append(res.Setups, d.Seconds())
		res.SetupPass = append(res.SetupPass, len(samples))
		parts["platform.build_ms"] = append(parts["platform.build_ms"], ms(rec.total("platform.build")))
		parts["model.build_ms"] = append(parts["model.build_ms"], ms(rec.total("model.build")))
		parts["astra.calibrate_s"] = append(parts["astra.calibrate_s"], rec.total("astra.New").Seconds())
		return p, d, nil
	}

	timeYardstick()
	for len(samples) == 0 || hostNow().Sub(start)+last < seconds {
		t0 := hostNow()
		var p pass
		for spent := time.Duration(0); p == nil || spent < setupPerPass; {
			next, d, err := setupOnce()
			if err != nil {
				return nil, err
			}
			p, spent = next, spent+d
		}
		runtime.GC()
		before := snapshot()
		p.run()
		after := snapshot()
		samples = append(samples, after.since(before))
		timeYardstick()
		last = hostNow().Sub(t0)

		out := p.outcome(first == nil)
		for k, v := range after.simCounters(before) {
			out.metrics[k] = v
		}
		res.Attempted += out.attempted
		res.Failed += out.failed
		res.Failures = append(res.Failures, out.failures...)
		if first == nil {
			first = &out
			res.Notes = p.notes()
		} else if diff := differing(first.metrics, out.metrics); diff != "" {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: pass %d simulated metrics differ from pass 1: %s", w.name(), len(samples), diff))
		}
	}
	res.Passes = len(samples)

	for k, v := range first.metrics {
		res.Metrics[k] = v
	}
	var cpu, gc, alloc []float64
	for _, s := range samples {
		res.Walls = append(res.Walls, s.wall.Seconds())
		cpu = append(cpu, s.cpu.Seconds())
		gc = append(gc, s.gcFrac)
		alloc = append(alloc, s.allocGB)
	}
	res.Metrics["setup_s"], res.Metrics["wall_s"] = scaledMedians(res)
	res.Metrics["host.yardstick_s"] = median(res.Yardsticks)
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	res.Metrics["runtime.cpu_s"] = median(cpu)
	res.Metrics["runtime.gc_cpu_frac"] = median(gc)
	res.Metrics["runtime.alloc_gb"] = median(alloc)
	if ev := first.metrics["sim.events"]; ev > 0 {
		res.Metrics["sim.host_ns_per_event"] = median(res.Walls) * 1e9 / ev
	}
	for name, xs := range parts {
		if v := median(xs); v > 0 {
			res.Metrics[name] = v
		}
	}

	if traced {
		if err := tracedPass(w, seed, first, res); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Failures) == 0
	return res, nil
}

// scaledMedians returns setup_s and wall_s: the medians of the run's
// set-up and pass times, each first scaled by refYardstick over the
// host's speed around its pass, the mean of the yardsticks timed just
// before and just after the pass. On the reference host this measured
// steadier than scaling by the run's median yardstick, which misses the
// host's slow and fast spells within a run.
func scaledMedians(res *result) (setup, wall float64) {
	around := func(pass int) float64 { return (res.Yardsticks[pass] + res.Yardsticks[pass+1]) / 2 }
	walls := make([]float64, len(res.Walls))
	for i, w := range res.Walls {
		walls[i] = w * refYardstick / around(i)
	}
	setups := make([]float64, len(res.Setups))
	for i, s := range res.Setups {
		setups[i] = s * refYardstick / around(res.SetupPass[i])
	}
	return median(setups), median(walls)
}

// tracedPass sets the workload up once more and runs it with the CPU
// profiler on, then writes the simulated-clock trace, the host spans and
// the profile under traceDir. Its simulated metrics must equal the
// untraced passes'.
func tracedPass(w workloadDef, seed int64, first *outcome, res *result) error {
	origin := hostNow()
	rec := &hostRec{}
	p, err := w.setup(seed, rec)
	if err != nil {
		return err
	}
	if sp, ok := p.(*servingPass); ok {
		sp.selectPass(rec)
		res.Metrics["graph.select_host_ms"] = ms(rec.total("graph.select"))
	}
	runtime.GC()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	before := snapshot()
	rec.do("run", p.run)
	after := snapshot()
	pprof.StopCPUProfile()

	out := p.outcome(false)
	for k, v := range after.simCounters(before) {
		out.metrics[k] = v
	}
	if diff := differing(first.metrics, out.metrics); diff != "" {
		res.Failures = append(res.Failures, fmt.Sprintf("%s: traced run's simulated metrics differ from the untraced run's: %s", w.name(), diff))
	}

	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.name(), seed))
	if err := writeTrace(base+".json", p.spans()); err != nil {
		return err
	}
	if err := writeTrace(base+".host.json", hostEvents(rec.spans, origin)); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return err
	}
	samples, err := profileStacks(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	res.Self = selfShares(samples)
	for _, layer := range []string{"sim.resource", "sim.engine", "gpu", "kernels", "netsim", "core", "graph", "runtime"} {
		res.Metrics[layer+".host_self_frac"] = res.Self[layer]
	}
	res.Notes = append(res.Notes, "trace: "+base+".json (simulated clock), .host.json, .cpu.pprof")
	return nil
}

// usage is a point-in-time reading of the process's counters.
type usage struct {
	at   time.Time
	cpu  time.Duration
	rt   []metrics.Sample
	simc sim.Stats
}

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func snapshot() usage {
	u := usage{rt: make([]metrics.Sample, len(runtimeMetrics)), simc: sim.GlobalStats()}
	for i, name := range runtimeMetrics {
		u.rt[i].Name = name
	}
	metrics.Read(u.rt)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	u.at = hostNow()
	return u
}

func (u usage) rtValue(i int) float64 {
	switch v := u.rt[i].Value; v.Kind() {
	case metrics.KindFloat64:
		return v.Float64()
	case metrics.KindUint64:
		return float64(v.Uint64())
	}
	return 0
}

// since returns the host side of the interval from before to u.
func (u usage) since(before usage) hostSample {
	d := func(i int) float64 { return u.rtValue(i) - before.rtValue(i) }
	s := hostSample{wall: u.at.Sub(before.at), cpu: u.cpu - before.cpu, allocGB: d(3) / 1e9}
	if used := d(1) - d(2); used > 0 {
		s.gcFrac = d(0) / used
	}
	return s
}

// simCounters returns the engine counters of the interval from before
// to u. They are deterministic, so they join the simulated metrics.
func (u usage) simCounters(before usage) map[string]float64 {
	a, b := u.simc, before.simc
	events := float64(a.Dispatched - b.Dispatched)
	handoffs := float64(a.DirectHandoffs - b.DirectHandoffs)
	m := map[string]float64{
		"sim.events":         events,
		"sim.windows":        float64(a.Windows - b.Windows),
		"sim.barrier_stalls": float64(a.BarrierStalls - b.BarrierStalls),
	}
	if events > 0 {
		m["sim.handoff_frac"] = handoffs / (handoffs + events)
		m["sim.pool_hits_per_event"] = float64(a.PoolHits-b.PoolHits) / events
	}
	return m
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// differing names the metrics whose values differ between a and b, in
// table order ("" when none).
func differing(a, b map[string]float64) string {
	var names []string
	for _, m := range metricTable {
		va, inA := a[m.name]
		vb, inB := b[m.name]
		if inA != inB || va != vb {
			names = append(names, fmt.Sprintf("%s %v vs %v", m.name, va, vb))
		}
	}
	if len(names) == 0 && len(a) != len(b) {
		names = append(names, "metric sets")
	}
	return strings.Join(names, ", ")
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
