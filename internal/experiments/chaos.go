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
	"fmt"
	"math"

	"fusedcc/internal/chaos"
	"fusedcc/internal/graph"
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

// chaosArmSpecs lists the serving policies every chaos point runs.
func chaosArmSpecs() []armSpec {
	return []armSpec{
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

// chaosScenario is one named fault plan. plan builds it from the
// config's own idle stack makespan cal, so fault onsets scale with the
// step: the same scenarios stress a 5ms DLRM step and a 500us decoder
// step equally. Random targets are left undrawn (the point draws them).
type chaosScenario struct {
	name string
	plan func(cal sim.Duration) chaos.Plan
}

// chaosScenarios builds the sweep's scenario set. Degradations strike
// after a short healthy window — realistic (the machine was fine at
// deployment) and required for the sampler's learned compute baseline.
func chaosScenarios() []chaosScenario {
	// after plans one fault on a drawn target, onset idle steps in.
	after := func(kind chaos.Kind, factor float64, onset sim.Duration) func(sim.Duration) chaos.Plan {
		return func(cal sim.Duration) chaos.Plan {
			return chaos.Plan{Faults: []chaos.Fault{{Kind: kind, Target: -1, Factor: factor, Start: onset * cal}}}
		}
	}
	return []chaosScenario{
		{"no-fault", func(sim.Duration) chaos.Plan { return chaos.Plan{} }},
		{"slow-nic", after(chaos.SlowLink, 8, 2)},
		{"straggler", after(chaos.Straggler, 4, 2)},
		{"drop-rank", after(chaos.DropRank, 0, 3)},
	}
}

// chaosSweepOutcomes runs one chaos point per (case, scenario) on the
// worker pool: the sweep body of Chaos, factored out so the
// determinism test can drive a reduced case set through it.
func chaosSweepOutcomes(cases []stackCase, nodes, gpus, layers int, mult float64, opt Options) []chaosOutcome {
	requests := 48
	if opt.Quick {
		requests = 16
	}
	type point struct {
		sc   stackCase
		scen chaosScenario
		seed int64
	}
	var points []point
	for _, sc := range cases {
		for _, scen := range chaosScenarios() {
			points = append(points, point{sc, scen, chaosSeed + int64(len(points))})
		}
	}
	return sweep.Map(opt.Parallel, len(points), func(i int) chaosOutcome {
		pt := points[i]
		d := servingDemand{mult: mult, requests: requests, seed: pt.seed}
		return chaosPointRun(pt.sc, nodes, gpus, layers,
			fmt.Sprintf("%dx%d %s", nodes, gpus, pt.scen.name), pt.scen, d, opt)
	})
}

// chaosOutcome is one completed sweep point: every arm on the same
// arrival stream under the same fault plan.
type chaosOutcome struct {
	label string
	scen  string
	qps   float64
	plan  chaos.Plan
	arms  []servingArm
	err   error
}

// arm returns the named arm's result.
func (o chaosOutcome) arm(name string) servingArm {
	for _, a := range o.arms {
		if a.name == name {
			return a
		}
	}
	return servingArm{}
}

// chaosPointRun serves one (case, shape, scenario) point once per arm.
// The point calibrates once; every arm replays the same seeded arrival
// stream under the same drawn fault plan, so the comparison isolates
// the serving policy. tag follows the case name in the point's label.
func chaosPointRun(sc stackCase, nodes, gpus, layers int, tag string, scen chaosScenario,
	d servingDemand, opt Options) chaosOutcome {
	out := chaosOutcome{label: sc.name + " " + tag, scen: scen.name}
	pt, err := newServingPoint(sc, nodes, gpus, layers, d, opt)
	if err != nil {
		out.err = err
		return out
	}
	pt.plan = scen.plan(pt.cal).Draw(d.seed, nodes, nodes*gpus)
	pt.handleFaults()
	out.plan, out.qps = pt.plan, pt.rate
	for _, spec := range chaosArmSpecs() {
		arm, err := pt.serve(spec, graph.LoadContext{}, opt)
		if err != nil {
			out.err = err
			return out
		}
		out.arms = append(out.arms, arm)
	}
	return out
}

// handleFaults sets the chaos arms' failure policy on the point's
// serving config: a deadline of chaosDeadlineFactor idle makespans, and
// up to chaosMaxRetries retries a quarter makespan apart.
func (pt *servingPoint) handleFaults() {
	pt.cfg.Deadline = chaosDeadlineFactor * pt.cal
	pt.cfg.MaxRetries = chaosMaxRetries
	pt.cfg.RetryBackoff = pt.cal / 4
}

// chaosArmNote renders one arm's line of a point note.
func chaosArmNote(a servingArm) string {
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
func onlineBeat(sf, ao servingArm) bool {
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
	if math.IsNaN(qps) || math.IsInf(qps, 0) {
		return nil, fmt.Errorf("experiments: chaos needs a finite -qps (0 for the saturation rate), got %g", qps)
	}
	plan, err := chaos.Parse(spec)
	if err != nil {
		return nil, err
	}
	// Arm the drawn plan on a throwaway cluster of this shape, so a
	// plan this shape cannot host fails before any point calibrates.
	drawn := plan.Draw(seed, nodes, nodes*gpus)
	pl, _ := clusterWorld(nodes, gpus)
	if _, err := chaos.Arm(pl, drawn); err != nil {
		return nil, err
	}
	if requests <= 0 {
		requests = 32
	}
	d := servingDemand{qps: qps, requests: requests, seed: seed}
	if qps <= 0 {
		d.mult = 1 // the config's own saturation rate
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
	scen := chaosScenario{name: "cli", plan: func(sim.Duration) chaos.Plan { return drawn }}
	outs := sweep.Map(opt.Parallel, len(cases), func(i int) chaosOutcome {
		return chaosPointRun(cases[i], nodes, gpus, layers, label, scen, d, opt)
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
