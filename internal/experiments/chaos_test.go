package experiments

import (
	"math"
	"reflect"
	"testing"

	"fusedcc/internal/graph"
)

// chaosDlrmOnly is the reduced case set the determinism tests sweep:
// the dlrm points carry the whole fault matrix (including the re-shard
// path) at a fraction of the decoder points' host cost.
func chaosDlrmOnly(t *testing.T) []stackCase {
	t.Helper()
	sc := pipelineCases(true)[1]
	if sc.name != "dlrm" {
		t.Fatalf("quick case 1 is %q, want dlrm", sc.name)
	}
	return []stackCase{sc}
}

// TestChaosZeroFaultMatchesServing is the no-regression acceptance
// check: with an empty fault plan, the chaos arms' deadline and retry
// policy — armed but never firing — must leave a serving pass
// byte-identical to the plain serving pass the Serving sweep runs.
func TestChaosZeroFaultMatchesServing(t *testing.T) {
	const nodes, gpus, layers = 4, 1, 2
	opt := Options{Quick: true, Parallel: 1}.withCache()
	sc := chaosDlrmOnly(t)[0]
	pt, err := newServingPoint(sc, nodes, gpus, layers, servingDemand{mult: 0.7, requests: 8, seed: 42}, opt)
	if err != nil {
		t.Fatal(err)
	}
	auto := armSpec{name: "auto", mode: graph.Auto}
	base, err := pt.serve(auto, graph.LoadContext{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	pt.handleFaults()
	if pt.cfg.Deadline == 0 || pt.cfg.MaxRetries == 0 {
		t.Fatalf("handleFaults armed no deadline or retries: %+v", pt.cfg)
	}
	arm, err := pt.serve(auto, graph.LoadContext{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if arm.stats.Drops != 0 || arm.stats.Retries != 0 {
		t.Fatalf("zero-fault run shed work: %d drops, %d retries", arm.stats.Drops, arm.stats.Retries)
	}
	if !reflect.DeepEqual(base, arm) {
		t.Errorf("zero-fault chaos serving diverged from plain serving:\nserving: %+v\n%v\nchaos:   %+v\n%v",
			base, base.stats, arm, arm.stats)
	}
}

// TestChaosDeterminismMatrix asserts the sweep invariant under fault
// injection: every outcome — request timestamps, drawn fault targets,
// retry counts, re-shard telemetry — is identical whether points run
// serially or on a worker pool.
func TestChaosDeterminismMatrix(t *testing.T) {
	if raceEnabled {
		t.Skip("full sweep runs are too heavy under the race detector; the fault path is race-covered by the serve and chaos package tests")
	}
	cases := chaosDlrmOnly(t)
	run := func(par int) []chaosOutcome {
		return chaosSweepOutcomes(cases, 4, 1, 2, 0.7, Options{Quick: true, Parallel: par}.withCache())
	}
	base := run(1)
	for _, o := range base {
		if o.err != nil {
			t.Fatal(o.err)
		}
	}
	if got := run(4); !reflect.DeepEqual(base, got) {
		t.Errorf("chaos sweep diverged on 4 workers:\nserial:   %+v\nworkers4: %+v", base, got)
	}
}

// TestChaosDropRankReshardsAndDrains is the no-wedge acceptance check:
// a dropped rank must re-shard the dlrm stack onto the survivors and
// the run must drain — every generated request either served or
// deliberately dropped, on every arm.
func TestChaosDropRankReshardsAndDrains(t *testing.T) {
	const nodes, gpus, layers = 4, 1, 2
	opt := Options{Quick: true, Parallel: 1}.withCache()
	sc := chaosDlrmOnly(t)[0]
	var scen chaosScenario
	for _, s := range chaosScenarios() {
		if s.name == "drop-rank" {
			scen = s
		}
	}
	if scen.plan == nil {
		t.Fatal("no drop-rank scenario")
	}
	d := servingDemand{mult: 0.7, requests: 16, seed: chaosSeed}
	out := chaosPointRun(sc, nodes, gpus, layers, scen.name, scen, d, opt)
	if out.err != nil {
		t.Fatal(out.err)
	}
	for _, a := range out.arms {
		if a.stats.Completed+a.stats.Drops != a.stats.Generated {
			t.Errorf("%s wedged: %d generated, %d completed, %d dropped",
				a.name, a.stats.Generated, a.stats.Completed, a.stats.Drops)
		}
		if a.stats.Completed == 0 {
			t.Errorf("%s served nothing", a.name)
		}
		if a.rebuilt == 0 || a.survivors != nodes*gpus-1 {
			t.Errorf("%s did not re-shard: %d rebuilds, %d survivors", a.name, a.rebuilt, a.survivors)
		}
	}
}

// TestChaosPointValidation covers the CLI entry point's error paths.
// Each is rejected before any point calibrates, so the table runs in
// milliseconds; the happy path runs through chaosPointRun, which the
// tests above exercise.
func TestChaosPointValidation(t *testing.T) {
	cases := []struct {
		name                string
		nodes, gpus, layers int
		spec                string
		qps                 float64
	}{
		{"bad shape", 0, 1, 2, "none", 0},
		{"bad layers", 4, 1, 0, "none", 0},
		{"unparsable spec", 4, 1, 2, "meltdown@0", 0},
		{"target out of range", 4, 1, 2, "droprank@99", 0},
		{"slowlink on one node", 1, 4, 2, "slowlink@0,x4", 0},
		{"NaN rate", 4, 1, 2, "none", math.NaN()},
		{"infinite rate", 4, 1, 2, "none", math.Inf(1)},
	}
	for _, tc := range cases {
		if _, err := ChaosPoint(tc.nodes, tc.gpus, tc.layers, tc.spec, tc.qps, 8, 1, Options{Quick: true}); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}
