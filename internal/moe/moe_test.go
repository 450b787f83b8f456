package moe

import (
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
	return Config{TokensPerGPU: 16, ModelDim: 24, FFNDim: 32, TopK: 2, TileM: 4, TileN: 8, Seed: 5}
}

func TestForwardFusedMatchesBaseline(t *testing.T) {
	get := func(mode graph.Mode) [][]float32 {
		e := sim.NewEngine()
		pl, w := testWorld(e, true)
		l, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.Go("fwd", func(p *sim.Proc) { l.StepReport(p, mode) })
		e.Run()
		var outs [][]float32
		for _, pe := range l.PEs {
			outs = append(outs, append([]float32(nil), l.Combined().On(pe).Data()...))
		}
		return outs
	}
	fu, ba := get(graph.Compiled), get(graph.Eager)
	for s := range fu {
		for i := range fu[s] {
			if fu[s][i] != ba[s][i] {
				t.Fatalf("rank %d elem %d: fused %g != baseline %g", s, i, fu[s][i], ba[s][i])
			}
		}
	}
}

func TestExpertRowsTopK(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, false)
	l, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if l.expertRows != 32 { // top-2 x 16 tokens
		t.Errorf("expert rows = %d, want 32", l.expertRows)
	}
	if l.Combined().Len() != 32*24 {
		t.Errorf("combine buffer = %d elements", l.Combined().Len())
	}
}

func TestForwardFusedFaster(t *testing.T) {
	timeOf := func(mode graph.Mode) sim.Time {
		e := sim.NewEngine()
		pl, w := testWorld(e, false)
		cfg := Config{TokensPerGPU: 256, ModelDim: 512, FFNDim: 1024, TopK: 2, TileM: 16, TileN: 128, Seed: 5}
		l, err := New(w, pes(pl), cfg, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.Go("fwd", func(p *sim.Proc) { l.StepReport(p, mode) })
		return e.Run()
	}
	fused, base := timeOf(graph.Compiled), timeOf(graph.Eager)
	if fused >= base {
		t.Errorf("fused MoE forward %v not faster than baseline %v", fused, base)
	}
}

func TestNewValidation(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, false)
	bad := smallCfg()
	bad.TopK = 9
	if _, err := New(w, pes(pl), bad, core.DefaultConfig()); err == nil {
		t.Error("want error for TopK > experts")
	}
	bad2 := smallCfg()
	bad2.TokensPerGPU = 15 // 2*15 not divisible by 4
	if _, err := New(w, pes(pl), bad2, core.DefaultConfig()); err == nil {
		t.Error("want error for indivisible expert rows")
	}
}

func TestDispatchThenCombineAccounting(t *testing.T) {
	// The fused forward must still pay the dispatch All-to-All: its
	// duration exceeds the fused GEMM+combine alone.
	e := sim.NewEngine()
	pl, w := testWorld(e, false)
	l, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rep *graph.Report
	e.Go("fwd", func(p *sim.Proc) { rep = l.StepReport(p, graph.Compiled) })
	end := e.Run()
	// Trailing asynchronous memory traffic may retire just after the
	// operator's own completion.
	if rep.End > end {
		t.Error("report ends after the simulation")
	}
	if rep.Duration() <= 0 {
		t.Error("empty forward")
	}
}
