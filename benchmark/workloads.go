package main

import (
	"fmt"
	"reflect"
	"sort"

	"fusedcc/internal/astra"
	"fusedcc/internal/chaos"
	"fusedcc/internal/core"
	"fusedcc/internal/dlrm"
	"fusedcc/internal/gpu"
	"fusedcc/internal/graph"
	"fusedcc/internal/moe"
	"fusedcc/internal/netsim"
	"fusedcc/internal/platform"
	"fusedcc/internal/serve"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
	"fusedcc/internal/transformer"
	"fusedcc/internal/workload"
)

// A workload is one named set of inputs: setup builds everything a timed
// run needs from the seed, recording the host time of each call into
// the layers.
type workloadDef interface {
	name() string
	setup(seed int64, rec *hostRec) (pass, error)
}

// A pass is one set-up workload instance. run is the timed part; the
// other methods read its results afterwards and are pure functions of
// workload and seed.
type pass interface {
	run()
	// outcome computes the simulated metrics and runs the output checks;
	// first marks the run's first pass, which also runs the checks too
	// costly to repeat.
	outcome(first bool) outcome
	// spans returns the simulated-clock trace of the pass.
	spans() []traceEvent
	// notes returns human-readable lines about the pass.
	notes() []string
}

// outcome is what one pass produced on the simulated clock.
type outcome struct {
	metrics           map[string]float64
	attempted, failed int
	failures          []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// workloads are run in this order by -workload all.
var workloads = []workloadDef{decodeTP8, moe2x4, dlrm8x1SlowNIC, trainAstra128}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name() == name {
			return w, true
		}
	}
	return nil, false
}

// servingSlots is the number of in-flight stack executions: each slot
// owns a stack instance on the shared world, so slots contend for the
// same streams and links.
const servingSlots = 2

// The serving workloads' offered rate and SLO are absolute
// numbers, frozen from the idle Auto step each stack took at the commit
// that introduced this benchmark (noted beside each). A later model
// change therefore moves latency under the same load, instead of moving
// the load with it. Saturation means one slot running full batches back
// to back: MaxBatch requests per idle step.

// decodeTP8 serves a 2-layer tensor-parallel decoder on one 8-GPU node
// at twice saturation (idle step 299.70 µs): GEMV+AllReduce over the
// fabric under a growing backlog. Auto fuses both pairs. Host time goes
// to per-workgroup GEMV tile flows and bandwidth re-sharing in
// sim.Resource.
var decodeTP8 = &servingSpec{
	id: "decode-tp8", nodes: 1, gpus: 8,
	build: func(w *shmem.World, pes []int) (stack, *graph.Graph, error) {
		d, err := transformer.NewDecoder(w, pes, transformer.DecoderConfig{Layers: 2, Hidden: 2048, FFN: 8192, TileM: 16, Seed: 1}, core.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		return d, d.Graph(), nil
	},
	rate: 53400, requests: 128, maxBatch: 8,
	slo:  2398 * sim.Microsecond,
	pcts: []float64{50, 90},
}

// moe2x4 serves a 2-layer MoE stack on two 4-GPU nodes at twice
// saturation (idle step 814.69 µs): GEMM+AllToAll, hierarchical over
// fabric and NIC. Auto schedules both pairs as one wavefront@2 chain,
// the only workload that runs the wavefront passes.
var moe2x4 = &servingSpec{
	id: "moe-2x4", nodes: 2, gpus: 4,
	build: func(w *shmem.World, pes []int) (stack, *graph.Graph, error) {
		st, err := moe.NewStack(w, pes, moe.Config{TokensPerGPU: 128, ModelDim: 1024, FFNDim: 512, TopK: 2, TileM: 16, TileN: 32, Seed: 1}, 2, core.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		return st, st.Graph(), nil
	},
	rate: 19640, requests: 104, maxBatch: 8,
	slo:  6518 * sim.Microsecond,
	pcts: []float64{50, 90},
}

// dlrm8x1SlowNIC serves a 2-group DLRM on eight 1-GPU nodes at 0.7x
// saturation (idle step 310.88 µs): embedding+AllToAll over NICs, with
// node 3's NIC slowed 8x for 15 ms mid-run. It bypasses GEMV and the
// wavefront passes. Its 1200 requests support a p99 with at least ten
// samples beyond it. No admission deadline is set, so every request is
// served and the fault shows in the tail instead.
var dlrm8x1SlowNIC = &servingSpec{
	id: "dlrm-8x1-slownic", nodes: 8, gpus: 1,
	build: func(w *shmem.World, pes []int) (stack, *graph.Graph, error) {
		m, err := dlrm.New(w, pes, dlrm.Config{
			TablesPerGPU: 2, TableRows: 1 << 14, EmbeddingDim: 256,
			GlobalBatch: 256, AvgPooling: 32,
			BottomMLP: []int{256, 512, 256}, TopMLP: []int{512, 512, 256, 1},
			SliceRows: 32, RowsPerWG: 32, Seed: 1, Groups: 2,
		}, core.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		return m, m.ForwardGraph(), nil
	},
	rate: 18000, requests: 1200, maxBatch: 8,
	slo:    2487 * sim.Microsecond,
	faults: "slowlink@3,x8,start=15ms,for=15ms",
	pcts:   []float64{50, 90, 99},
}

// trainAstra128 replays the paper's Table II DLRM training run on a
// 128-node 16x8 torus (Fig 15), fused and baseline, on two engine
// shards. It has no graph, executor or serving loop.
var trainAstra128 = &astraSpec{id: "train-astra128", iters: 4, shards: 2}

// stack is the part of a case-study stack the benchmark drives.
type stack interface {
	StepReport(p *sim.Proc, mode graph.Mode) *graph.Report
	Executor() *graph.Executor
}

// servingSpec is an open-loop serving workload.
type servingSpec struct {
	id          string
	nodes, gpus int
	// build constructs one stack instance and returns its graph.
	build func(w *shmem.World, pes []int) (stack, *graph.Graph, error)
	// rate is the offered load in requests per simulated second.
	rate     float64
	requests int
	maxBatch int
	// slo bounds the latency goodput counts.
	slo sim.Duration
	// faults is a chaos fault plan armed on the serving world ("": none).
	faults string
	// pcts are the latency percentiles reported; each must leave
	// minTail completions beyond it.
	pcts []float64
}

func (s *servingSpec) name() string { return s.id }

// arrivals draws the open-loop arrival schedule: n exponential gaps at
// rate requests per second, as offsets from the start of the run.
func arrivals(seed int64, rate float64, n int) *serve.Trace {
	rng := workload.Rand(seed)
	tr := &serve.Trace{At: make([]sim.Time, n)}
	var at sim.Time
	for i := range tr.At {
		at = at.Add(sim.DurationOf(rng.ExpFloat64() / rate))
		tr.At[i] = at
	}
	return tr
}

// servingPass is one set-up serving run: a calibration step already
// taken on its own world, and a fresh serving world with its slots.
type servingPass struct {
	spec  *servingSpec
	cache *graph.PassCache
	// idle is the calibration step's report; calGraph the graph it ran.
	idle     *graph.Report
	calGraph *graph.Graph
	pl       *platform.Platform
	slots    []*servingBackend
	arrivals *serve.Trace
	stats    *serve.Stats
}

// servingBackend runs each batch as one Auto step and keeps the report.
type servingBackend struct {
	r     stack
	slot  int
	steps []stepRecord
}

type stepRecord struct {
	slot int
	ids  []int
	rep  *graph.Report
}

func (b *servingBackend) Step(p *sim.Proc, batch []*serve.Request) {
	rep := b.r.StepReport(p, graph.Auto)
	ids := make([]int, len(batch))
	for i, r := range batch {
		ids[i] = r.ID
	}
	b.steps = append(b.steps, stepRecord{slot: b.slot, ids: ids, rep: rep})
}

func (s *servingSpec) world(rec *hostRec) (*platform.Platform, *shmem.World, error) {
	var (
		pl  *platform.Platform
		w   *shmem.World
		err error
	)
	rec.do("platform.build", func() {
		pl, err = platform.New(sim.NewEngine(), platform.Cluster(s.nodes, s.gpus))
		if err == nil {
			w = shmem.NewWorld(pl, shmem.DefaultConfig())
		}
	})
	return pl, w, err
}

func (s *servingSpec) stack(rec *hostRec, w *shmem.World, cache *graph.PassCache) (stack, *graph.Graph, error) {
	var (
		r   stack
		g   *graph.Graph
		err error
	)
	rec.do("model.build", func() { r, g, err = s.build(w, allPEs(w.Platform())) })
	if err != nil {
		return nil, nil, fmt.Errorf("%s: build stack: %w", s.id, err)
	}
	x := r.Executor()
	x.Streams = true
	x.Cache = cache
	return r, g, nil
}

func (s *servingSpec) setup(seed int64, rec *hostRec) (pass, error) {
	p := &servingPass{spec: s, cache: graph.NewPassCache()}

	// Calibration: one idle Auto step on its own world fills the pass
	// cache, so the serving slots replay its plan instead of pricing it.
	cal, w, err := s.world(rec)
	if err != nil {
		return nil, err
	}
	r, g, err := s.stack(rec, w, p.cache)
	if err != nil {
		return nil, err
	}
	p.calGraph = g
	rec.do("graph.calibrate", func() {
		cal.E.Go("calibrate", func(pr *sim.Proc) { p.idle = r.StepReport(pr, graph.Auto) })
		cal.E.Run()
	})

	if p.pl, w, err = s.world(rec); err != nil {
		return nil, err
	}
	for i := 0; i < servingSlots; i++ {
		r, _, err := s.stack(rec, w, p.cache)
		if err != nil {
			return nil, err
		}
		p.slots = append(p.slots, &servingBackend{r: r, slot: i})
	}
	if s.faults != "" {
		plan, err := chaos.Parse(s.faults)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.id, err)
		}
		rec.do("chaos.arm", func() { _, err = chaos.Arm(p.pl, plan) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.id, err)
		}
	}
	p.arrivals = arrivals(seed, s.rate, s.requests)
	return p, nil
}

func (p *servingPass) run() {
	backends := make([]serve.Backend, len(p.slots))
	for i, b := range p.slots {
		backends[i] = b
	}
	p.stats = serve.Run(p.pl.E, p.arrivals, backends, serve.Config{
		MaxBatch: p.spec.maxBatch,
		Requests: len(p.arrivals.At),
		SLO:      p.spec.slo,
	})
}

// selectPass times the select pass alone on the calibration graph.
func (p *servingPass) selectPass(rec *hostRec) {
	rec.do("graph.select", func() { graph.SelectLoaded(p.calGraph, graph.LoadContext{}) })
}

// steps returns every recorded step in (start, slot) order.
func (p *servingPass) steps() []stepRecord {
	var all []stepRecord
	for _, b := range p.slots {
		all = append(all, b.steps...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].rep.Start != all[j].rep.Start {
			return all[i].rep.Start < all[j].rep.Start
		}
		return all[i].slot < all[j].slot
	})
	return all
}

func (p *servingPass) outcome(bool) outcome {
	s, st := p.spec, p.stats
	o := outcome{metrics: map[string]float64{}, attempted: st.Generated, failed: st.Generated - st.Completed}
	m := o.metrics

	// Conservation: every scheduled arrival was generated, and every
	// generated request either completed or was dropped.
	if n := len(p.arrivals.At); st.Generated != n || st.Completed+st.Drops != st.Generated {
		o.fail("%s: completed %d + dropped %d, generated %d, trace length %d", s.id, st.Completed, st.Drops, st.Generated, n)
	}
	// Latency is timed from the scheduled arrival, so the generator must
	// never run late.
	var lag sim.Duration
	for _, log := range [][]*serve.Request{st.Requests, st.Dropped} {
		for _, r := range log {
			d := r.Arrival.Sub(p.arrivals.At[r.ID])
			if d < 0 {
				d = -d
			}
			lag = max(lag, d)
		}
	}
	if lag != 0 {
		o.fail("%s: an arrival stamp is %v off its scheduled offset", s.id, lag)
	}
	m["serve.gen_lag_us"] = lag.Micros()
	m["sim.max_heap_depth"] = float64(p.pl.E.Stats().MaxHeapDepth)

	lats := make([]sim.Duration, len(st.Requests))
	waits := make([]sim.Duration, len(st.Requests))
	services := make([]sim.Duration, len(st.Requests))
	for i, r := range st.Requests {
		lats[i], waits[i], services[i] = r.Latency(), r.Wait(), r.Service()
	}
	pct := func(name string, xs []sim.Duration, q float64) {
		v, err := percentile(xs, q)
		if err != nil {
			o.fail("%s: %s: %v", s.id, name, err)
			return
		}
		m[name] = v.Micros()
	}
	for _, q := range s.pcts {
		pct(fmt.Sprintf("lat_p%g_us", q), lats, q)
		switch q {
		case 50:
			pct("serve.wait_p50_us", waits, q)
			pct("serve.service_p50_us", services, q)
		case 90:
			pct("serve.wait_p90_us", waits, q)
		}
	}
	m["goodput_rps"] = st.Goodput
	if st.Generated > 0 {
		m["failed_frac"] = float64(st.Generated-st.Completed) / float64(st.Generated)
	}
	m["serve.mean_depth"] = st.MeanDepth
	m["serve.max_depth"] = float64(st.MaxDepth)
	if st.Batches > 0 {
		m["serve.batch_mean"] = float64(st.Completed) / float64(st.Batches)
	}

	p.deviceMetrics(&o)
	p.linkMetrics(m)
	p.graphMetrics(&o)
	return o
}

// deviceMetrics reads the serving world's devices. The world is fresh
// per pass, so their cumulative counters cover exactly this run.
func (p *servingPass) deviceMetrics(o *outcome) {
	span := p.stats.Makespan
	devs := p.pl.Devices()
	if span <= 0 || len(devs) == 0 {
		o.fail("%s: empty makespan", p.spec.id)
		return
	}
	var comp, comm, ovl, wait, hbm, alu sim.Duration
	var kernels int
	var hbmBytes float64
	for _, d := range devs {
		cb, mb, ov := d.StreamBusy(gpu.StreamCompute), d.StreamBusy(gpu.StreamComm), d.StreamOverlap()
		if cb > span || mb > span {
			o.fail("%s: gpu%d stream busy %v/%v exceeds makespan %v", p.spec.id, d.ID(), cb, mb, span)
		}
		if ov > min(cb, mb) {
			o.fail("%s: gpu%d stream overlap %v exceeds the less busy stream (%v, %v)", p.spec.id, d.ID(), ov, cb, mb)
		}
		comp, comm, ovl = comp+cb, comm+mb, ovl+ov
		wait += d.Stream(gpu.StreamCompute).QueueWait() + d.Stream(gpu.StreamComm).QueueWait()
		kernels += d.KernelsLaunched()
		hbm += d.HBM().BusyTime()
		alu += d.ALU().BusyTime()
		hbmBytes += d.HBM().TotalBytes()
	}
	per := float64(span) * float64(len(devs))
	m := o.metrics
	m["gpu.compute_busy_frac"] = float64(comp) / per
	m["gpu.comm_busy_frac"] = float64(comm) / per
	m["gpu.stream_overlap_frac"] = float64(ovl) / per
	m["gpu.stream_wait_us"] = wait.Micros() / float64(len(devs))
	m["gpu.kernels"] = float64(kernels)
	m["gpu.hbm_busy_frac"] = float64(hbm) / per
	m["gpu.hbm_gb"] = hbmBytes / 1e9
	m["gpu.alu_busy_frac"] = float64(alu) / per
}

// linkMetrics reads the fabric links of every node and the scale-out
// network's links, when the shape has them.
func (p *servingPass) linkMetrics(m map[string]float64) {
	span := float64(p.stats.Makespan)
	var fab []*sim.Resource
	if p.spec.gpus > 1 {
		for n := 0; n < p.spec.nodes; n++ {
			f := p.pl.FabricOf(n * p.spec.gpus)
			for a := 0; a < f.Size(); a++ {
				for b := 0; b < f.Size(); b++ {
					if a != b {
						fab = append(fab, f.Link(a, b))
					}
				}
			}
		}
		m["fabric.gb"], m["fabric.busy_frac"] = linkUse(fab, span)
	}
	if le, ok := p.pl.Network().(netsim.LinkEnumerator); ok {
		var net []*sim.Resource
		for _, l := range le.Links() {
			net = append(net, l.Res)
		}
		m["netsim.gb"], m["netsim.busy_frac"] = linkUse(net, span)
	}
}

// linkUse returns the links' total gigabytes and mean busy fraction.
func linkUse(links []*sim.Resource, span float64) (gb, busy float64) {
	if len(links) == 0 || span <= 0 {
		return 0, 0
	}
	for _, r := range links {
		gb += r.TotalBytes() / 1e9
		busy += float64(r.BusyTime()) / span
	}
	return gb, busy / float64(len(links))
}

func (p *servingPass) graphMetrics(o *outcome) {
	m := o.metrics
	m["graph.idle_step_us"] = p.idle.Duration().Micros()
	if sel := p.idle.Select; sel != nil {
		m["graph.predicted_pair_us"] = sel.PredictedTotal().Micros()
		forms := map[graph.Mode]string{graph.Compiled: "fused", graph.Eager: "eager", graph.Pipelined: "pipelined", graph.Wavefront: "wavefront"}
		for _, f := range []string{"fused", "eager", "pipelined", "wavefront"} {
			m["graph.forms."+f] = 0
		}
		for _, d := range sel.Decisions {
			f, ok := forms[d.Choice]
			if !ok {
				o.fail("%s: unknown Auto choice %v", p.spec.id, d.Choice)
				continue
			}
			m["graph.forms."+f]++
		}
	}
	if hits, misses := p.cache.Stats(); hits+misses > 0 {
		m["graph.cache_hit_frac"] = float64(hits) / float64(hits+misses)
	}

	steps := p.steps()
	if len(steps) == 0 {
		o.fail("%s: no steps ran", p.spec.id)
		return
	}
	durs := make([]float64, len(steps))
	var split stepSplit
	var puts int
	var bytes float64
	for i, s := range steps {
		durs[i] = s.rep.Duration().Micros()
		split = split.add(splitStep(s.rep))
		puts += s.rep.RemotePuts()
		bytes += s.rep.RemoteBytes()
	}
	m["graph.step_p50_us"] = median(durs)
	f := split.fractions()
	sum := 0.0
	for _, x := range f {
		if x < 0 {
			o.fail("%s: negative step split %v", p.spec.id, f)
		}
		sum += x
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		o.fail("%s: step split %v sums to %v, not 1", p.spec.id, f, sum)
	}
	m["graph.step.compute_only_frac"], m["graph.step.comm_exposed_frac"] = f[0], f[1]
	m["graph.step.overlap_frac"], m["graph.step.idle_frac"] = f[2], f[3]
	m["core.remote_puts"] = float64(puts)
	m["core.remote_gb"] = bytes / 1e9
}

func (p *servingPass) notes() []string {
	var out []string
	if sel := p.idle.Select; sel != nil {
		for _, d := range sel.Decisions {
			out = append(out, fmt.Sprintf("auto: (%s, %s) -> %s, predicted %v", d.Compute, d.Collective, d.ChoiceString(), d.Predicted()))
		}
		for _, w := range sel.Wavefronts {
			out = append(out, fmt.Sprintf("auto: wavefront@%d predicted %v", w.Chunks, w.Predicted))
		}
	}
	out = append(out, fmt.Sprintf("serve: %v", p.stats))
	return out
}

// astraSpec replays training iterations: each pass runs iters fused and
// iters baseline iterations on the sharded engine.
type astraSpec struct {
	id            string
	iters, shards int
}

func (s *astraSpec) name() string { return s.id }

type astraPass struct {
	spec            *astraSpec
	sim             *astra.Simulator
	fused, baseline []astra.Result
}

func (s *astraSpec) setup(_ int64, rec *hostRec) (pass, error) {
	var (
		sm  *astra.Simulator
		err error
	)
	rec.do("astra.New", func() { sm, err = astra.New(astra.DefaultSystem(), astra.DefaultModel()) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.id, err)
	}
	return &astraPass{spec: s, sim: sm}, nil
}

func (p *astraPass) run() {
	for i := 0; i < p.spec.iters; i++ {
		p.fused = append(p.fused, p.sim.TrainIterationOpt(true, p.spec.shards))
	}
	for i := 0; i < p.spec.iters; i++ {
		p.baseline = append(p.baseline, p.sim.TrainIterationOpt(false, p.spec.shards))
	}
}

func (p *astraPass) outcome(first bool) outcome {
	n := len(p.fused) + len(p.baseline)
	o := outcome{metrics: map[string]float64{}, attempted: n}
	for _, rs := range [][]astra.Result{p.fused, p.baseline} {
		for _, r := range rs[1:] {
			if !reflect.DeepEqual(r, rs[0]) {
				o.fail("%s: iterations differ: %v vs %v", p.spec.id, r.Total, rs[0].Total)
			}
		}
	}
	if first {
		// The sharded engine must reproduce the serial one exactly.
		serial := p.sim.TrainIterationOpt(true, 1)
		if serial.Total != p.fused[0].Total || !reflect.DeepEqual(serial.Phases, p.fused[0].Phases) {
			o.fail("%s: sharded iteration %v differs from serial %v", p.spec.id, p.fused[0].Total, serial.Total)
		}
	}
	o.metrics["iter_ms"] = p.fused[0].Total.Seconds() * 1e3
	o.metrics["astra.baseline_iter_ms"] = p.baseline[0].Total.Seconds() * 1e3
	o.metrics["astra.shards"] = float64(p.fused[0].Shards)
	return o
}

func (p *astraPass) notes() []string {
	r := p.fused[0]
	names := make([]string, 0, len(r.Phases))
	for k := range r.Phases {
		names = append(names, k)
	}
	sort.Strings(names)
	line := "astra phases:"
	for _, k := range names {
		line += fmt.Sprintf(" %s=%v", k, r.Phases[k])
	}
	return []string{
		fmt.Sprintf("astra: fused %v, baseline %v (%.1f%% faster), %d shards %s",
			r.Total, p.baseline[0].Total, 100*(1-float64(r.Total)/float64(p.baseline[0].Total)), r.Shards, r.Note),
		line,
	}
}

func allPEs(pl *platform.Platform) []int {
	pes := make([]int, pl.NDevices())
	for i := range pes {
		pes[i] = i
	}
	return pes
}
