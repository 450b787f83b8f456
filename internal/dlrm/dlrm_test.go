package dlrm

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

func testWorld(e *sim.Engine, nodes, gpn int, functional bool) (*platform.Platform, *shmem.World) {
	cfg := platform.Config{
		Nodes:       nodes,
		GPUsPerNode: gpn,
		GPU: gpu.Config{
			Name: "t", CUs: 8, MaxWGSlotsPerCU: 4,
			HBMBandwidth: 32e9, PerWGStreamBandwidth: 2e9,
			GatherEfficiency: 0.5, FlopsPerCU: 4e9,
			KernelLaunchOverhead: 8 * sim.Microsecond, Functional: functional,
		},
		Fabric:       fabric.Config{LinkBandwidth: 8e9, StoreLatency: 700, PerWGStoreBandwidth: 2e9},
		NICBandwidth: 2e9,
		NICLatency:   2 * sim.Microsecond,
	}
	pl, err := platform.New(e, cfg)
	if err != nil {
		panic(err)
	}
	return pl, shmem.NewWorld(pl, shmem.DefaultConfig())
}

func smallCfg() Config {
	return Config{
		TablesPerGPU: 4,
		TableRows:    256,
		EmbeddingDim: 16,
		GlobalBatch:  64,
		AvgPooling:   4,
		BottomMLP:    []int{16, 32, 16},
		TopMLP:       []int{64, 32, 1},
		SliceRows:    8,
		Seed:         7,
	}
}

func pes(pl *platform.Platform) []int {
	out := make([]int, pl.NDevices())
	for i := range out {
		out[i] = i
	}
	return out
}

func TestForwardFusedMatchesBaselineOutput(t *testing.T) {
	get := func(mode graph.Mode) [][]float32 {
		e := sim.NewEngine()
		pl, w := testWorld(e, 2, 1, true)
		m, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.Go("fwd", func(p *sim.Proc) { m.StepReport(p, mode) })
		e.Run()
		var outs [][]float32
		for _, pe := range m.PEs {
			outs = append(outs, append([]float32(nil), m.EmbOp.Out.On(pe).Data()...))
		}
		return outs
	}
	f, b := get(graph.Compiled), get(graph.Eager)
	for s := range f {
		for i := range f[s] {
			if f[s][i] != b[s][i] {
				t.Fatalf("rank %d elem %d: fused %g != baseline %g", s, i, f[s][i], b[s][i])
			}
		}
	}
}

func TestForwardFusedFasterInterNode(t *testing.T) {
	timeOf := func(mode graph.Mode) sim.Time {
		e := sim.NewEngine()
		pl, w := testWorld(e, 2, 1, false)
		cfg := smallCfg()
		cfg.TablesPerGPU = 8
		cfg.GlobalBatch = 128
		cfg.EmbeddingDim = 64
		m, err := New(w, pes(pl), cfg, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.Go("fwd", func(p *sim.Proc) { m.StepReport(p, mode) })
		return e.Run()
	}
	fused, base := timeOf(graph.Compiled), timeOf(graph.Eager)
	if fused >= base {
		t.Errorf("fused DLRM forward %v not faster than baseline %v", fused, base)
	}
}

func TestForwardReportSpansWholePass(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, 1, 4, false)
	m, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rep *graph.Report
	e.Go("fwd", func(p *sim.Proc) { rep = m.StepReport(p, graph.Compiled) })
	end := e.Run()
	if rep.End != end || rep.Start != 0 {
		t.Errorf("report [%v,%v] does not span run ending %v", rep.Start, rep.End, end)
	}
	if rep.Duration() <= 0 {
		t.Error("zero-duration forward")
	}
}

func TestModelShapeHelpers(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, 1, 4, false)
	m, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.LocalBatch() != 16 {
		t.Errorf("local batch = %d, want 16", m.LocalBatch())
	}
	if m.Features() != 4*4+1 {
		t.Errorf("features = %d, want 17", m.Features())
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, 2, 1, false)
	bad := smallCfg()
	bad.GlobalBatch = 63 // not divisible by ranks
	if _, err := New(w, pes(pl), bad, core.DefaultConfig()); err == nil {
		t.Error("want error for indivisible batch")
	}
	bad2 := smallCfg()
	bad2.TablesPerGPU = 0
	if _, err := New(w, pes(pl), bad2, core.DefaultConfig()); err == nil {
		t.Error("want error for zero tables")
	}
}

func TestTimingModeSkipsIndexGeneration(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, 2, 1, false)
	m, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Sets[0].Bags[0].Offsets != nil {
		t.Error("timing mode should not materialize lookup indices")
	}
}

func TestTrainStepFusedFaster(t *testing.T) {
	timeOf := func(mode graph.Mode) sim.Time {
		e := sim.NewEngine()
		pl, w := testWorld(e, 2, 1, false)
		cfg := smallCfg()
		cfg.TablesPerGPU = 8
		cfg.GlobalBatch = 128
		cfg.EmbeddingDim = 64
		m, err := New(w, pes(pl), cfg, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.Go("train", func(p *sim.Proc) { m.TrainStep(p, mode) })
		return e.Run()
	}
	fused, base := timeOf(graph.Compiled), timeOf(graph.Eager)
	if fused >= base {
		t.Errorf("fused train step %v not faster than baseline %v", fused, base)
	}
}

func TestTrainStepReportSpansIteration(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, 1, 4, false)
	m, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rep *graph.Report
	e.Go("train", func(p *sim.Proc) { rep = m.TrainStep(p, graph.Compiled) })
	end := e.Run()
	if rep.Start != 0 || rep.End > end {
		t.Errorf("report [%v,%v] vs run end %v", rep.Start, rep.End, end)
	}
	var fwdOnly *graph.Report
	e2 := sim.NewEngine()
	pl2, w2 := testWorld(e2, 1, 4, false)
	m2, err := New(w2, pes(pl2), smallCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e2.Go("fwd", func(p *sim.Proc) { fwdOnly = m2.StepReport(p, graph.Compiled) })
	e2.Run()
	if rep.Duration() <= fwdOnly.Duration() {
		t.Error("training step must cost more than forward alone")
	}
}

func TestMLPParams(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, 1, 4, false)
	m, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// bottom 16x32+32x16, top 64x32+32x1.
	want := 16*32 + 32*16 + 64*32 + 32*1
	if m.MLPParams() != want {
		t.Errorf("params = %d, want %d", m.MLPParams(), want)
	}
}
