// The serving experiment (id "serving") puts the execution modes under
// the load the paper's target workloads actually run with: an open-loop
// Poisson request stream continuously batched into in-flight stack
// executions. Per sweep point it serves the same arrival stream twice —
// once on the idle-machine Auto plan (the offline selection CoCoNet and
// GC3 perform) and once on the load-aware plan (Select re-priced with
// the observed queue depth) — and reports where the choices flip and
// what the flip buys in tail latency.
//
// This file also holds the serving harness every serving and chaos arm
// runs through: one backend, one arm type, and one run function. A
// serving arm is a chaos arm with an empty fault plan.
package experiments

import (
	"errors"
	"fmt"
	"math"

	"fusedcc/internal/chaos"
	"fusedcc/internal/gpu"
	"fusedcc/internal/graph"
	"fusedcc/internal/serve"
	"fusedcc/internal/sim"
	"fusedcc/internal/sweep"
)

const (
	// servingInFlight is the number of serving slots: concurrent stack
	// executions in flight, each on its own stack instance (operators
	// are not reentrant) but sharing one world, so they contend for the
	// same per-GPU streams and links.
	servingInFlight = 2
	// servingMaxBatch caps the requests one batched stack step carries:
	// a step's cost is the stack makespan regardless of batch size, so
	// batching amortizes it across up to this many requests.
	servingMaxBatch = 4
	// servingSeed is the base arrival seed; each sweep point offsets it
	// by its index so points draw independent streams while staying
	// byte-identical across worker counts.
	servingSeed = 1
	// servingSLOFactor sets the goodput SLO at this multiple of the
	// config's idle stack makespan.
	servingSLOFactor = 8
)

// armSpec names one serving policy: the mode every step runs in, and
// whether Auto re-prices the plan online from observed degradation.
type armSpec struct {
	name   string
	mode   graph.Mode
	online bool
}

// servingBackend adapts a case stack to a serving slot: one batched
// step is one stack execution in the arm's mode. It checks participant
// liveness around each step (an empty fault plan never trips it) and,
// on an online arm, closes a sampling window and re-prices the plan
// from observed degradation before stepping.
type servingBackend struct {
	r      stackRunner
	x      *graph.Executor
	mode   graph.Mode
	pes    []int
	health *chaos.Health
	// detect is the timeout a step burns before reporting a dead rank —
	// the RPC-timeout detection delay.
	detect sim.Duration

	online  bool
	sampler *chaos.Sampler
	depth   *depthEWMA
	rate    float64

	choices   string
	reselects int
}

func (b *servingBackend) Step(p *sim.Proc, batch []*serve.Request) { _ = b.StepErr(p, batch) }

func (b *servingBackend) StepErr(p *sim.Proc, batch []*serve.Request) error {
	if rank, since, dead := b.health.AnyDead(b.pes); dead {
		// The collective times out against the dead rank: the step burns
		// the detection delay, then fails without doing work.
		p.Sleep(b.detect)
		return &chaos.RankDeadError{Rank: rank, Since: since}
	}
	if b.online {
		b.sampler.Sample()
		load := graph.LoadContext{
			QueueDepth:  b.depth.value(),
			ArrivalRate: b.rate,
			Degrade:     b.sampler.Degrade(),
		}
		if load != b.x.Load {
			b.x.Load = load
		}
	}
	rep := b.r.StepReport(p, b.mode)
	if rep.Mode == graph.Auto {
		c := summarizeDecisions(rep.Select)
		if b.choices != "" && c != b.choices {
			b.reselects++
		}
		b.choices = c
	}
	if rank, since, dead := b.health.AnyDead(b.pes); dead {
		// The rank died mid-step: the simulated work completed, but its
		// results are void — work lost at failure; the batch retries.
		return &chaos.RankDeadError{Rank: rank, Since: since}
	}
	return nil
}

// servingArm is one completed serving pass: the request statistics,
// the Auto plan it executed under, its stream occupancy, and the fault
// handling and (online) re-selection telemetry.
type servingArm struct {
	name    string
	stats   *serve.Stats
	choices string
	// load is the load context every executor started from.
	load graph.LoadContext
	// computeOcc/commOcc are mean per-GPU stream occupancies over the
	// whole serving run — how loaded each stream class actually was,
	// summed across in-flight slots.
	computeOcc, commOcc float64
	reselects           int
	degrade             graph.DegradeContext
	rebuilt, survivors  int
}

func (a servingArm) p99() sim.Duration { return a.stats.Latency.P99 }

// servingDemand is one point's offered load before calibration.
type servingDemand struct {
	// mult > 0 offers mult times the config's saturation rate:
	// servingMaxBatch requests per idle step time.
	mult float64
	// qps is a fixed Poisson rate, used when mult is zero.
	qps float64
	// trace, when set, is replayed verbatim instead of a Poisson
	// stream, and its length bounds the run.
	trace    *serve.Trace
	requests int
	horizon  sim.Duration
	seed     int64
}

// servingPoint is one calibrated point: a case stack at one shape, its
// offered load, serving config and fault plan. Every arm of a point
// replays the same seeded arrivals under the same plan, so arms differ
// only in their serving policy.
type servingPoint struct {
	sc                  stackCase
	nodes, gpus, layers int
	cal                 sim.Duration // idle Auto stack makespan
	rate                float64      // offered requests per second
	d                   servingDemand
	cfg                 serve.Config
	plan                chaos.Plan
}

// newServingPoint calibrates the case's idle Auto makespan at this
// shape and resolves the demand against it. The goodput SLO is
// servingSLOFactor idle makespans.
func newServingPoint(sc stackCase, nodes, gpus, layers int, d servingDemand, opt Options) (*servingPoint, error) {
	cal, err := runStack(sc, nodes, gpus, layers, 2, graph.Auto, opt)
	if err != nil {
		return nil, err
	}
	pt := &servingPoint{
		sc: sc, nodes: nodes, gpus: gpus, layers: layers,
		cal: cal.dur, rate: d.qps, d: d,
		cfg: serve.Config{Requests: d.requests, Horizon: d.horizon, SLO: servingSLOFactor * cal.dur},
	}
	switch {
	case d.trace != nil:
		n := len(d.trace.At)
		pt.rate = float64(n)
		if span := d.trace.At[n-1].Seconds(); span > 0 {
			pt.rate = float64(n) / span
		}
		pt.cfg.Requests = n
	case d.mult > 0:
		pt.rate = d.mult * servingMaxBatch / cal.dur.Seconds()
	}
	return pt, nil
}

// arrivals returns a fresh copy of the point's arrival stream.
func (pt *servingPoint) arrivals() serve.Arrivals {
	if pt.d.trace != nil {
		return pt.d.trace
	}
	return serve.Poisson(pt.rate, pt.d.seed, pt.sc.name)
}

// serve runs one arm of the point on a fresh world with the point's
// fault plan armed: servingInFlight slots share the world, every
// executor starts from load, a dropped rank re-shards the stack onto
// the survivors when the case supports it, and an online arm feeds
// sampled degradation into selection.
func (pt *servingPoint) serve(spec armSpec, load graph.LoadContext, opt Options) (servingArm, error) {
	pl, w := clusterWorld(pt.nodes, pt.gpus)
	inj, err := chaos.Arm(pl, pt.plan)
	if err != nil {
		return servingArm{}, err
	}
	cfg := pt.cfg
	var sampler *chaos.Sampler
	var depth *depthEWMA
	if spec.online {
		sampler = chaos.NewSampler(pl, chaosAlpha, chaosThreshold)
		depth = &depthEWMA{alpha: chaosAlpha}
		cfg.Probe = func(now sim.Time, d int) { depth.observe(d) }
	}
	pes := allPEs(pl)
	newBackend := func(r stackRunner, ranks []int, load graph.LoadContext) *servingBackend {
		x := r.Executor()
		x.Streams = true
		x.Cache = opt.Cache
		x.Load = load
		return &servingBackend{
			r: r, x: x, mode: spec.mode, pes: ranks,
			health: inj.Health, detect: pt.cal / 4,
			online: spec.online, sampler: sampler, depth: depth, rate: pt.rate,
		}
	}
	slots := make([]serve.Backend, servingInFlight)
	backends := make([]*servingBackend, servingInFlight)
	for i := range slots {
		r, err := pt.sc.build(w, pes, pt.layers)
		if err != nil {
			return servingArm{}, fmt.Errorf("%s on %dx%d: %w", pt.sc.name, pt.nodes, pt.gpus, err)
		}
		backends[i] = newBackend(r, pes, load)
		slots[i] = backends[i]
	}
	arm := servingArm{name: spec.name, load: load, survivors: len(pes)}
	cfg.MaxBatch = servingMaxBatch
	cfg.Rebuild = func(slot int, err error) serve.Backend {
		var rde *chaos.RankDeadError
		if !errors.As(err, &rde) || pt.sc.reshard == nil {
			return nil
		}
		survivors := inj.Health.Survivors(pes)
		if len(survivors) == 0 || len(survivors) == len(backends[slot].pes) {
			return nil // nothing new to exclude
		}
		r, rerr := pt.sc.reshard(w, survivors, pt.layers, len(pes))
		if rerr != nil {
			return nil // cannot re-shard: keep shedding via retries/drops
		}
		nb := newBackend(r, survivors, backends[slot].x.Load)
		nb.choices, nb.reselects = backends[slot].choices, backends[slot].reselects
		backends[slot] = nb
		arm.rebuilt++
		arm.survivors = len(survivors)
		return nb
	}
	st := serve.Run(pl.E, pt.arrivals(), slots, cfg)
	arm.stats = st
	arm.choices = backends[0].choices
	for _, b := range backends {
		arm.reselects += b.reselects
	}
	if sampler != nil {
		arm.degrade = sampler.Degrade()
	}
	// Occupancy reads the shared devices' cumulative stream busy time
	// (the world is fresh, so the counters cover exactly this run) —
	// per-step executor reports can't be summed here, since overlapping
	// slots share the streams and would double-count each other.
	if st.Makespan > 0 {
		var comp, comm sim.Duration
		for _, dev := range pl.Devices() {
			comp += dev.StreamBusy(gpu.StreamCompute)
			comm += dev.StreamBusy(gpu.StreamComm)
		}
		span := float64(st.Makespan) * float64(len(pl.Devices()))
		arm.computeOcc = float64(comp) / span
		arm.commOcc = float64(comm) / span
	}
	return arm, nil
}

// servingOutcome is one completed point: both arms at one offered
// load.
type servingOutcome struct {
	label        string
	qps          float64
	idle, loaded servingArm
	// flip: the load-aware plan chose differently; win: and its p99 is
	// strictly lower — the acceptance condition of load-aware selection.
	flip, win bool
	err       error
}

// servingPointRun serves one (case, shape, load) point twice: first on
// the idle-machine plan (zero LoadContext — exactly what Select always
// chose), then on the load-aware plan re-priced with the queue depth
// the idle pass observed. Both arms replay the same arrival stream, so
// the comparison isolates the plan. tag follows the case name in the
// point's label.
func servingPointRun(sc stackCase, nodes, gpus, layers int, tag string, d servingDemand, opt Options) servingOutcome {
	out := servingOutcome{label: sc.name + " " + tag}
	pt, err := newServingPoint(sc, nodes, gpus, layers, d, opt)
	if err != nil {
		out.err = err
		return out
	}
	out.qps = pt.rate
	if out.idle, err = pt.serve(armSpec{name: "idle", mode: graph.Auto}, graph.LoadContext{}, opt); err != nil {
		out.err = err
		return out
	}
	// The observed mean queue depth is the pricing multiplier: an
	// execution that holds its bottleneck stream for D delays every
	// request queued behind it by ~D, so loaded cost charges demand once
	// per queued request.
	load := graph.LoadContext{QueueDepth: out.idle.stats.MeanDepth, ArrivalRate: pt.rate}
	if out.loaded, err = pt.serve(armSpec{name: "load-aware", mode: graph.Auto}, load, opt); err != nil {
		out.err = err
		return out
	}
	out.flip = out.loaded.choices != out.idle.choices
	out.win = out.flip && out.loaded.p99() < out.idle.p99()
	return out
}

// servingNote renders one sweep point's comparison line.
func servingNote(o servingOutcome) string {
	verdict := "same plan"
	if o.flip {
		verdict = "FLIP"
		if o.win {
			verdict = "FLIP, p99 win"
		}
	}
	return fmt.Sprintf(
		"%s (%.0f req/s): idle plan [%s] p99 %v, goodput %.0f/s, mean depth %.2f, streams %.0f%%c+%.0f%%m; "+
			"load-aware (depth %.2f) [%s] p99 %v (%+.1f%%), goodput %.0f/s, streams %.0f%%c+%.0f%%m [%s]",
		o.label, o.qps,
		o.idle.choices, o.idle.p99(), o.idle.stats.Goodput, o.idle.stats.MeanDepth,
		100*o.idle.computeOcc, 100*o.idle.commOcc,
		o.loaded.load.QueueDepth, o.loaded.choices, o.loaded.p99(),
		100*(float64(o.loaded.p99())/float64(o.idle.p99())-1),
		o.loaded.stats.Goodput, 100*o.loaded.computeOcc, 100*o.loaded.commOcc, verdict)
}

// servingRequests is the sweep's request count at load multiplier
// mult. Underloaded points drain in near-singleton batches, so each
// request is a full stack execution; they only need to show the queue
// stays shallow and the plan stays put. Overloaded points keep the full
// count — the flip depends on the backlog they build.
func servingRequests(mult float64, quick bool) int {
	switch {
	case mult < 1 && quick:
		return 8
	case mult < 1:
		return 64 / 3
	case quick:
		return 48
	}
	return 64
}

// Serving runs the QPS sweep (experiment id "serving"): every case
// stack at each shape, offered load stepped through multiples of the
// config's own saturation rate. Rows pair the idle-machine plan's p99
// (baseline) against the load-aware plan's p99 at the same offered
// load; notes carry both plans' choices, goodput, queue depths, and the
// per-config crossover point — the lowest rate at which the load-aware
// choice departs from the idle one and wins on tail latency.
func Serving(opt Options) *Result {
	shapes := [][2]int{{1, 8}, {8, 1}}
	mults := []float64{0.5, 2, 4}
	if opt.Quick {
		shapes = [][2]int{{1, 8}}
		mults = []float64{0.5, 4}
	}
	const layers = 2
	opt = opt.withCache()
	cases := pipelineCases(opt.Quick)
	if opt.Quick {
		// Quick serves the decoder stack only: every request is a full
		// stack execution, so the dlrm/moe arms dominate host time (their
		// steps simulate 5-16ms of cluster activity each) while the
		// decoder already exhibits the load-aware crossover the sweep
		// exists to show. The full sweep serves all three cases.
		cases = cases[:1]
	}

	type point struct {
		sc          stackCase
		nodes, gpus int
		mult        float64
		seed        int64
	}
	var points []point
	for _, sc := range cases {
		for _, sh := range shapes {
			for _, m := range mults {
				points = append(points, point{sc, sh[0], sh[1], m, servingSeed + int64(len(points))})
			}
		}
	}
	outs := sweep.Map(opt.Parallel, len(points), func(i int) servingOutcome {
		pt := points[i]
		d := servingDemand{mult: pt.mult, requests: servingRequests(pt.mult, opt.Quick), seed: pt.seed}
		return servingPointRun(pt.sc, pt.nodes, pt.gpus, layers,
			fmt.Sprintf("%dx%d x%.2f", pt.nodes, pt.gpus, pt.mult), d, opt)
	})

	res := &Result{
		ID:    "Serving",
		Title: "idle-machine vs load-aware Auto plans under open-loop request streams (p99 at equal offered load)",
	}
	// crossover[config] is the lowest multiplier whose point flipped and
	// won; points arrive in multiplier order within each config.
	crossover := map[string]float64{}
	var order []string
	flips, wins := 0, 0
	for i, o := range outs {
		if o.err != nil {
			panic(o.err) // sweep shapes are fixed and valid
		}
		res.Rows = append(res.Rows, Row{Label: o.label, Baseline: o.idle.p99(), Fused: o.loaded.p99()})
		res.Notes = append(res.Notes, servingNote(o))
		if o.flip {
			flips++
		}
		if o.win {
			wins++
			pt := points[i]
			cfgKey := fmt.Sprintf("%s %dx%d", pt.sc.name, pt.nodes, pt.gpus)
			if _, seen := crossover[cfgKey]; !seen {
				crossover[cfgKey] = pt.mult
				order = append(order, cfgKey)
			}
		}
	}
	for _, cfgKey := range order {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: load-aware selection crosses over at x%.2f offered load (flip with lower p99)",
			cfgKey, crossover[cfgKey]))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"load-aware selection changed the plan on %d/%d points, winning on p99 at %d",
		flips, len(outs), wins))
	return res
}

// ServingPoint serves the three case stacks at one shape and one
// offered load — the engine behind fusionbench's -mode serve. The load
// comes from -qps (Poisson at the given rate, bounded by requests or by
// the horizon) or from a trace file replayed verbatim. Each case runs
// as one point of the Serving sweep: rows pair the idle-machine plan's
// p99 against the load-aware plan's.
func ServingPoint(nodes, gpus, layers int, qps float64, requests int,
	horizon sim.Duration, tracePath string, seed int64, opt Options) (*Result, error) {
	if err := validShape(nodes, gpus); err != nil {
		return nil, err
	}
	if layers < 1 {
		return nil, fmt.Errorf("experiments: need layers >= 1, got %d", layers)
	}
	d := servingDemand{qps: qps, requests: requests, horizon: horizon, seed: seed}
	switch {
	case tracePath != "":
		tr, err := serve.LoadTrace(tracePath)
		if err != nil {
			return nil, err
		}
		d = servingDemand{trace: tr}
	case !(qps > 0) || math.IsInf(qps, 1):
		return nil, fmt.Errorf("experiments: serving needs a finite -qps > 0 or a -trace file, got -qps %g", qps)
	case requests <= 0 && horizon <= 0:
		return nil, fmt.Errorf("experiments: serving needs a -requests or -duration bound")
	}
	opt = opt.withCache()
	label := fmt.Sprintf("%dx%d L%d", nodes, gpus, layers)
	res := &Result{
		ID:    "Serving" + label,
		Title: fmt.Sprintf("idle-machine vs load-aware Auto plans under request load (%s)", label),
	}
	cases := pipelineCases(opt.Quick)
	outs := sweep.Map(opt.Parallel, len(cases), func(i int) servingOutcome {
		return servingPointRun(cases[i], nodes, gpus, layers, label, d, opt)
	})
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		res.Rows = append(res.Rows, Row{Label: o.label, Baseline: o.idle.p99(), Fused: o.loaded.p99()})
		res.Notes = append(res.Notes, servingNote(o))
	}
	return res, nil
}
