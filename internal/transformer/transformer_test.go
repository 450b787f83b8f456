package transformer

import (
	"math"
	"testing"

	"fusedcc/internal/core"
	"fusedcc/internal/fabric"
	"fusedcc/internal/gpu"
	"fusedcc/internal/graph"
	"fusedcc/internal/platform"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

func testWorld(e *sim.Engine, functional bool) (*platform.Platform, *shmem.World) {
	cfg := platform.Config{
		Nodes:       1,
		GPUsPerNode: 4,
		GPU: gpu.Config{
			Name: "t", CUs: 8, MaxWGSlotsPerCU: 4,
			HBMBandwidth: 32e9, PerWGStreamBandwidth: 2e9,
			GatherEfficiency: 0.5, FlopsPerCU: 4e9,
			KernelLaunchOverhead: 8 * sim.Microsecond, Functional: functional,
		},
		Fabric: fabric.Config{LinkBandwidth: 8e9, StoreLatency: 700, PerWGStoreBandwidth: 2e9},
	}
	pl, err := platform.New(e, cfg)
	if err != nil {
		panic(err)
	}
	return pl, shmem.NewWorld(pl, shmem.DefaultConfig())
}

func pes(pl *platform.Platform) []int {
	out := make([]int, pl.NDevices())
	for i := range out {
		out[i] = i
	}
	return out
}

func smallCfg() Config {
	return Config{Hidden: 64, FFN: 128, TileM: 8, Seed: 3}
}

func TestDecodeStepFusedMatchesBaseline(t *testing.T) {
	get := func(mode graph.Mode) []float32 {
		e := sim.NewEngine()
		pl, w := testWorld(e, true)
		f, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.Go("step", func(p *sim.Proc) { f.StepReport(p, mode) })
		e.Run()
		return append([]float32(nil), f.Output().On(0).Data()...)
	}
	fu, ba := get(graph.Compiled), get(graph.Eager)
	for i := range fu {
		if fu[i] != ba[i] {
			t.Fatalf("out[%d]: fused %g != baseline %g", i, fu[i], ba[i])
		}
	}
}

func TestDecodeStepOutputReplicatedAcrossRanks(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, true)
	f, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Go("step", func(p *sim.Proc) { f.StepReport(p, graph.Compiled) })
	e.Run()
	ref := f.Output().On(0).Data()
	var nonzero bool
	for _, v := range ref {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("output all zeros — activation path broken")
	}
	for pe := 1; pe < 4; pe++ {
		d := f.Output().On(pe).Data()
		for i := range d {
			if d[i] != ref[i] {
				t.Fatalf("rank %d out[%d] diverges", pe, i)
			}
		}
	}
}

func TestReLUAppliedBetweenLayers(t *testing.T) {
	// With ReLU between the layers, the fused result must differ from
	// the product without activation for generic random weights — sanity
	// that StepReport actually routes through the activation.
	e := sim.NewEngine()
	pl, w := testWorld(e, true)
	f, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Manually compute without ReLU on rank 0's shard: y = W1.(W0.x).
	g1, g2 := f.gemv1[0], f.Op.Gemvs[0]
	pre := make([]float64, g1.M)
	for m := 0; m < g1.M; m++ {
		for k := 0; k < g1.K; k++ {
			pre[m] += float64(g1.W.Data()[m*g1.K+k]) * float64(g1.X.Data()[k])
		}
	}
	e.Go("step", func(p *sim.Proc) { f.StepReport(p, graph.Compiled) })
	e.Run()
	// g2.X (== g1.Y) must equal relu(pre).
	for m := 0; m < g1.M; m++ {
		want := pre[m]
		if want < 0 {
			want = 0
		}
		if got := float64(g2.X.Data()[m]); math.Abs(got-want) > 1e-3 {
			t.Fatalf("activation[%d] = %g, want relu %g", m, got, want)
		}
	}
}

func TestDecodeStepFusedFaster(t *testing.T) {
	timeOf := func(mode graph.Mode) sim.Time {
		e := sim.NewEngine()
		pl, w := testWorld(e, false)
		cfg := Config{Hidden: 4096, FFN: 8192, TileM: 64, Seed: 3}
		f, err := New(w, pes(pl), cfg, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.Go("step", func(p *sim.Proc) { f.StepReport(p, mode) })
		return e.Run()
	}
	fused, base := timeOf(graph.Compiled), timeOf(graph.Eager)
	if fused >= base {
		t.Errorf("fused decode step %v not faster than baseline %v", fused, base)
	}
}

func TestNewValidation(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, false)
	bad := smallCfg()
	bad.FFN = 130 // not divisible by 4 ranks
	if _, err := New(w, pes(pl), bad, core.DefaultConfig()); err == nil {
		t.Error("want error for indivisible FFN")
	}
	bad2 := smallCfg()
	bad2.TileM = 7
	if _, err := New(w, pes(pl), bad2, core.DefaultConfig()); err == nil {
		t.Error("want error for TileM not dividing Hidden")
	}
}
