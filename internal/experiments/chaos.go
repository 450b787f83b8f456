// The chaos experiment (id "chaos") rehearses failures under serving
// load: deterministic seeded faults — a degraded NIC, a straggler
// device, a dropped rank — strike mid-run while an open-loop request
// stream is being served, and four arms handle the same stream: the
// static fused and eager plans, offline Auto (idle-machine selection),
// and Auto with online re-selection fed by observed degradation. The
// claim under test is the robustness half of the fusion story: fused
// persistent kernels are the right plan on a healthy machine, but under
// a degraded link or device the scheduler must be able to flip back to
// split forms — and a dropped rank must degrade the service (re-shard,
// retry, shed) rather than wedge it.
package experiments

import (
	"errors"
	"fmt"
	"math"

	"fusedcc/internal/chaos"
	"fusedcc/internal/graph"
	"fusedcc/internal/serve"
	"fusedcc/internal/sim"
	"fusedcc/internal/sweep"
)

const (
	// chaosSeed is the base seed: each sweep point offsets it by its
	// index for arrival streams and fault-target draws.
	chaosSeed = 7001
	// chaosAlpha is the EWMA weight of the health monitor and the
	// queue-depth tracker.
	chaosAlpha = 0.4
	// chaosThreshold is the smoothed slowdown below which the monitor
	// reads healthy. Compute probes self-normalize against their fastest
	// observed window, so ordinary step-to-step rate wiggle reads as a
	// small slowdown on every healthy device; the injected faults are
	// 4-8x, leaving a wide band between noise and signal.
	chaosThreshold = 1.5
	// chaosMaxRetries bounds re-enqueues of requests whose step failed.
	chaosMaxRetries = 3
	// chaosDeadlineFactor sets the admission deadline at this multiple
	// of the idle stack makespan (4x the goodput SLO: generous enough
	// that healthy runs never shed, tight enough that a wedged
	// configuration drains as drops instead of unbounded queueing).
	chaosDeadlineFactor = 4 * servingSLOFactor
)

// chaosArmSpec names one serving policy under fault.
type chaosArmSpec struct {
	name   string
	mode   graph.Mode
	online bool
}

func chaosArmSpecs() []chaosArmSpec {
	return []chaosArmSpec{
		{"static-fused", graph.Compiled, false},
		{"static-eager", graph.Eager, false},
		{"auto", graph.Auto, false},
		{"auto+online", graph.Auto, true},
	}
}

// depthEWMA smooths observed queue depths from the serving loop's probe
// hook, quantized to whole requests so steady load prices steadily (and
// hits the selection cache) instead of re-selecting per wiggle.
type depthEWMA struct {
	alpha float64
	v     float64
	seen  bool
}

func (d *depthEWMA) observe(depth int) {
	if !d.seen {
		d.v, d.seen = float64(depth), true
		return
	}
	d.v += d.alpha * (float64(depth) - d.v)
}

func (d *depthEWMA) value() float64 { return math.Round(d.v) }

// chaosBackend adapts a case stack to a fault-aware serving slot: it
// checks participant liveness around each step, and — on the online
// arm — closes a sampling window and re-prices the plan from observed
// degradation before stepping.
type chaosBackend struct {
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

func (b *chaosBackend) Step(p *sim.Proc, batch []*serve.Request) { _ = b.StepErr(p, batch) }

func (b *chaosBackend) StepErr(p *sim.Proc, batch []*serve.Request) error {
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

// chaosRun specifies one serving pass under a fault plan.
type chaosRun struct {
	sc                  stackCase
	nodes, gpus, layers int
	arm                 chaosArmSpec
	plan                chaos.Plan
	rate                float64
	detect              sim.Duration
}

// chaosArm is one completed pass: request statistics plus the fault
// handling and (online) re-selection telemetry.
type chaosArm struct {
	name      string
	stats     *serve.Stats
	choices   string
	reselects int
	degrade   graph.DegradeContext
	rebuilt   int
	survivors int
	monitor   string
}

func (a chaosArm) p99() sim.Duration { return a.stats.Latency.P99 }

// chaosServe runs one serving pass on a fresh world with the fault plan
// armed: servingInFlight fault-aware slots share the world, the dropped
// -rank rebuild hook re-shards onto survivors when the case supports
// it, and the online arm feeds sampled degradation into selection.
func chaosServe(cr chaosRun, arrivals serve.Arrivals, cfg serve.Config, opt Options) (chaosArm, error) {
	pl, w := clusterWorldOpt(cr.nodes, cr.gpus, opt)
	inj, err := chaos.Arm(pl, cr.plan)
	if err != nil {
		return chaosArm{}, err
	}
	var sampler *chaos.Sampler
	var depth *depthEWMA
	if cr.arm.online {
		sampler = chaos.NewSampler(pl, chaosAlpha, chaosThreshold)
		depth = &depthEWMA{alpha: chaosAlpha}
		cfg.Probe = func(now sim.Time, d int) { depth.observe(d) }
	}
	pes := allPEs(pl)
	newBackend := func(r stackRunner, ranks []int, load graph.LoadContext) *chaosBackend {
		x := r.Executor()
		x.Streams = true
		x.Cache = opt.Cache
		x.Load = load
		return &chaosBackend{
			r: r, x: x, mode: cr.arm.mode, pes: ranks,
			health: inj.Health, detect: cr.detect,
			online: cr.arm.online, sampler: sampler, depth: depth, rate: cr.rate,
		}
	}
	slots := make([]serve.Backend, servingInFlight)
	backends := make([]*chaosBackend, servingInFlight)
	for i := range slots {
		r, err := cr.sc.build(w, pes, cr.layers)
		if err != nil {
			return chaosArm{}, fmt.Errorf("%s on %dx%d: %w", cr.sc.name, cr.nodes, cr.gpus, err)
		}
		backends[i] = newBackend(r, pes, graph.LoadContext{})
		slots[i] = backends[i]
	}
	arm := chaosArm{name: cr.arm.name, survivors: len(pes)}
	cfg.MaxBatch = servingMaxBatch
	cfg.Rebuild = func(slot int, err error) serve.Backend {
		var rde *chaos.RankDeadError
		if !errors.As(err, &rde) || cr.sc.reshard == nil {
			return nil
		}
		survivors := inj.Health.Survivors(pes)
		if len(survivors) == 0 || len(survivors) == len(backends[slot].pes) {
			return nil // nothing new to exclude
		}
		r, rerr := cr.sc.reshard(w, survivors, cr.layers, len(pes))
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
	arm.stats = serve.Run(pl.E, arrivals, slots, cfg)
	arm.choices = backends[0].choices
	for _, b := range backends {
		arm.reselects += b.reselects
	}
	if sampler != nil {
		arm.degrade = sampler.Degrade()
		arm.monitor = sampler.Monitor().String()
	}
	return arm, nil
}

// chaosScenario is one named fault plan of the sweep.
type chaosScenario struct {
	name string
	plan chaos.Plan
}

// chaosScenarios builds the scenario set for one sweep point: fault
// onsets scale with the config's own idle step time cal, so the same
// scenarios stress a 5ms DLRM step and a 500us decoder step equally.
// Degradations strike after a short healthy window — realistic (the
// machine was fine at deployment) and required for the sampler's
// learned compute baseline. Random targets are left undrawn (the point
// draws them).
func chaosScenarios(cal sim.Duration) []chaosScenario {
	return []chaosScenario{
		{"no-fault", chaos.Plan{}},
		{"slow-nic", chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.SlowLink, Target: -1, Factor: 8, Start: 2 * cal},
		}}},
		{"straggler", chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.Straggler, Target: -1, Factor: 4, Start: 2 * cal},
		}}},
		{"drop-rank", chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.DropRank, Target: -1, Start: 3 * cal},
		}}},
	}
}

// chaosSweepOutcomes runs one chaos point per (case, scenario) on the
// worker pool: the sweep body of Chaos, factored out so the
// determinism tests can drive a reduced case set through the same
// shard/worker matrix.
func chaosSweepOutcomes(cases []stackCase, nodes, gpus, layers int, mult float64, opt Options) []chaosOutcome {
	scens := chaosScenarios(0) // names only; plans are rebuilt per point with cal
	type point struct {
		sc   stackCase
		scen int
		seed int64
	}
	var points []point
	for _, sc := range cases {
		for si := range scens {
			points = append(points, point{sc, si, chaosSeed + int64(len(points))})
		}
	}
	return sweep.Map(opt.Parallel, len(points), func(i int) chaosOutcome {
		pt := points[i]
		// Rebuild the scenario with this point's own calibration inside
		// the worker: onset times scale with the case's step time.
		cal, err := runStack(pt.sc, nodes, gpus, layers, 2, graph.Auto, opt)
		if err != nil {
			return chaosOutcome{err: err}
		}
		scen := chaosScenarios(cal.dur)[pt.scen]
		return chaosPointRun(pt.sc, nodes, gpus, layers, scen.name, scen.plan, mult, pt.seed, opt)
	})
}

// chaosOutcome is one completed sweep point: every arm on the same
// arrival stream under the same fault plan.
type chaosOutcome struct {
	label string
	scen  string
	qps   float64
	plan  chaos.Plan
	arms  []chaosArm
	err   error
}

// arm returns the named arm's result.
func (o chaosOutcome) arm(name string) chaosArm {
	for _, a := range o.arms {
		if a.name == name {
			return a
		}
	}
	return chaosArm{}
}

// chaosPointRun serves one (case, shape, scenario) point once per arm.
// All arms replay the same seeded arrival stream under the same drawn
// fault plan, so the comparison isolates the serving policy.
func chaosPointRun(sc stackCase, nodes, gpus, layers int, scenName string,
	plan chaos.Plan, mult float64, seed int64, opt Options) chaosOutcome {
	out := chaosOutcome{
		label: fmt.Sprintf("%s %dx%d %s", sc.name, nodes, gpus, scenName),
		scen:  scenName,
	}
	cal, err := runStack(sc, nodes, gpus, layers, 2, graph.Auto, opt)
	if err != nil {
		out.err = err
		return out
	}
	out.plan = plan.Draw(seed, nodes, nodes*gpus)
	out.qps = mult * servingMaxBatch / cal.dur.Seconds()
	requests := 48
	if opt.Quick {
		requests = 16
	}
	cfg := serve.Config{
		Requests:     requests,
		SLO:          servingSLOFactor * cal.dur,
		Deadline:     chaosDeadlineFactor * cal.dur,
		MaxRetries:   chaosMaxRetries,
		RetryBackoff: cal.dur / 4,
	}
	for _, spec := range chaosArmSpecs() {
		cr := chaosRun{
			sc: sc, nodes: nodes, gpus: gpus, layers: layers,
			arm: spec, plan: out.plan, rate: out.qps, detect: cal.dur / 4,
		}
		arm, err := chaosServe(cr, serve.Poisson(out.qps, seed, sc.name), cfg, opt)
		if err != nil {
			out.err = err
			return out
		}
		out.arms = append(out.arms, arm)
	}
	return out
}

// chaosArmNote renders one arm's line of a point note.
func chaosArmNote(a chaosArm) string {
	s := fmt.Sprintf("%s p99 %v, goodput %.0f/s", a.name, a.p99(), a.stats.Goodput)
	if a.stats.Drops > 0 || a.stats.Retries > 0 {
		s += fmt.Sprintf(", %d dropped/%d retries", a.stats.Drops, a.stats.Retries)
	}
	if a.rebuilt > 0 {
		s += fmt.Sprintf(", re-sharded to %d ranks (%d rebuilds)", a.survivors, a.rebuilt)
	}
	if a.name == "auto+online" {
		if a.degrade.Degraded() {
			s += ", observed degrade"
			if a.degrade.Compute > 0 {
				s += fmt.Sprintf(" compute x%.2f", a.degrade.Compute)
			}
			if a.degrade.Comm > 0 {
				s += fmt.Sprintf(" net x%.2f", a.degrade.Comm)
			}
		}
		if a.reselects > 0 {
			s += fmt.Sprintf(", %d re-selections", a.reselects)
		}
		s += fmt.Sprintf(" [%s]", a.choices)
	}
	return s
}

// onlineBeat reports whether the online arm out-served static-fused: a
// lower p99, or completions where the static arm shed its entire stream
// (whose p99 over zero completions reads 0, not infinity).
func onlineBeat(sf, ao chaosArm) bool {
	if sf.p99() == 0 {
		return ao.p99() > 0 && sf.stats.Drops > 0
	}
	return ao.p99() < sf.p99()
}

// chaosNote renders one sweep point's comparison note.
func chaosNote(o chaosOutcome) string {
	sf, ao := o.arm("static-fused"), o.arm("auto+online")
	verdict := "online matches static-fused"
	switch {
	case sf.p99() == 0 && sf.stats.Drops > 0:
		verdict = "static-fused dropped its whole stream"
		if ao.p99() > 0 {
			verdict = "online served the stream; static-fused dropped all of it"
		}
	case ao.p99() == 0 && ao.stats.Drops > 0:
		verdict = "online dropped its whole stream"
	case ao.p99() < sf.p99():
		verdict = fmt.Sprintf("online wins p99 by %.1f%%", 100*(1-float64(ao.p99())/float64(sf.p99())))
	case ao.p99() > sf.p99():
		verdict = fmt.Sprintf("static-fused ahead by %.1f%%", 100*(float64(ao.p99())/float64(sf.p99())-1))
	}
	s := fmt.Sprintf("%s (%.0f req/s, faults: %v): ", o.label, o.qps, o.plan)
	for i, a := range o.arms {
		if i > 0 {
			s += "; "
		}
		s += chaosArmNote(a)
	}
	return s + " [" + verdict + "]"
}

// Chaos runs the fault-injection sweep (experiment id "chaos"): the
// scale-out shape of every eligible case stack through the four fault
// scenarios, served by all four arms at the same offered load. Rows
// pair the static fused plan's p99 (baseline) against Auto with online
// re-selection; notes carry every arm plus the drawn fault plans.
func Chaos(opt Options) *Result {
	const gpus, layers = 1, 2
	// Quick mode halves the scale-out shape: decoder serving at 8 nodes
	// costs minutes of host time per point (fine-grained slice events in
	// the fused persistent kernels), and the fault story — flip under
	// degradation, re-shard on rank loss — reads the same at 4.
	nodes := 8
	if opt.Quick {
		nodes = 4
	}
	// Offered load sits below the healthy saturation knee, so the
	// no-fault arms are comfortable and the fault scenarios — which cut
	// effective capacity several-fold — are genuinely overloaded.
	const mult = 0.7
	opt = opt.withCache()
	all := pipelineCases(opt.Quick)
	// dlrm is the scale-out case with a re-shard path (the drop-rank
	// story); the decoder is where degradation flips the plan (its pairs
	// sit near the fused/split crossover, so online re-selection has a
	// real choice to make).
	cases := []stackCase{all[1], all[0]}
	outs := chaosSweepOutcomes(cases, nodes, gpus, layers, mult, opt)

	res := &Result{
		ID:    "Chaos",
		Title: "serving through injected faults: static plans vs degradation-aware online re-selection (p99)",
	}
	onlineWins := 0
	dropRankOK := true
	for _, o := range outs {
		if o.err != nil {
			panic(o.err) // sweep shapes are fixed and valid
		}
		sf, ao := o.arm("static-fused"), o.arm("auto+online")
		res.Rows = append(res.Rows, Row{Label: o.label, Baseline: sf.p99(), Fused: ao.p99()})
		res.Notes = append(res.Notes, chaosNote(o))
		if o.scen != "no-fault" && onlineBeat(sf, ao) {
			onlineWins++
		}
		if o.scen == "drop-rank" {
			for _, a := range o.arms {
				if a.stats.Completed+a.stats.Drops != a.stats.Generated {
					dropRankOK = false
				}
			}
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"online re-selection beat the static fused plan's p99 on %d fault points", onlineWins))
	if dropRankOK {
		res.Notes = append(res.Notes,
			"all drop-rank runs drained to completion (served + dropped = generated): no wedged configurations")
	}
	return res
}

// ChaosPoint serves the eligible case stacks at one shape under a
// user-supplied fault plan — the engine behind fusionbench's -mode
// chaos -faults. Random targets ("?") draw from the seed. Rows pair the
// static fused plan's p99 against Auto with online re-selection.
func ChaosPoint(nodes, gpus, layers int, spec string, qps float64, requests int,
	seed int64, opt Options) (*Result, error) {
	if err := validShape(nodes, gpus); err != nil {
		return nil, err
	}
	if layers < 1 {
		return nil, fmt.Errorf("experiments: need layers >= 1, got %d", layers)
	}
	plan, err := chaos.Parse(spec)
	if err != nil {
		return nil, err
	}
	if requests <= 0 {
		requests = 32
	}
	opt = opt.withCache()
	label := fmt.Sprintf("%dx%d L%d", nodes, gpus, layers)
	res := &Result{
		ID:    "Chaos" + label,
		Title: fmt.Sprintf("serving through injected faults (%s, plan %v)", label, plan),
	}
	all := pipelineCases(opt.Quick)
	cases := []stackCase{all[1], all[0]} // dlrm (re-shards), decoder (sheds)
	if opt.Quick {
		cases = cases[:1]
	}
	outs := sweep.Map(opt.Parallel, len(cases), func(i int) chaosOutcome {
		sc := cases[i]
		out := chaosOutcome{label: fmt.Sprintf("%s %s", sc.name, label), scen: "cli"}
		cal, err := runStack(sc, nodes, gpus, layers, 2, graph.Auto, opt)
		if err != nil {
			out.err = err
			return out
		}
		out.plan = plan.Draw(seed, nodes, nodes*gpus)
		rate := qps
		if rate <= 0 {
			rate = servingMaxBatch / cal.dur.Seconds()
		}
		out.qps = rate
		cfg := serve.Config{
			Requests:     requests,
			SLO:          servingSLOFactor * cal.dur,
			Deadline:     chaosDeadlineFactor * cal.dur,
			MaxRetries:   chaosMaxRetries,
			RetryBackoff: cal.dur / 4,
		}
		for _, spec := range chaosArmSpecs() {
			cr := chaosRun{
				sc: sc, nodes: nodes, gpus: gpus, layers: layers,
				arm: spec, plan: out.plan, rate: rate, detect: cal.dur / 4,
			}
			arm, aerr := chaosServe(cr, serve.Poisson(rate, seed, sc.name), cfg, opt)
			if aerr != nil {
				out.err = aerr
				return out
			}
			out.arms = append(out.arms, arm)
		}
		return out
	})
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		sf, ao := o.arm("static-fused"), o.arm("auto+online")
		res.Rows = append(res.Rows, Row{Label: o.label, Baseline: sf.p99(), Fused: ao.p99()})
		res.Notes = append(res.Notes, chaosNote(o))
	}
	return res, nil
}
