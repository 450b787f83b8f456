package moe

import (
	"testing"

	"fusedcc/internal/core"
	"fusedcc/internal/graph"
	"fusedcc/internal/sim"
)

// TestStackBitExactAcrossModes runs a 2-layer MoE stack in all three
// execution modes and verifies every layer's combine output is
// bit-identical.
func TestStackBitExactAcrossModes(t *testing.T) {
	const layers = 2
	e := sim.NewEngine()
	pl, w := testWorld(e, true)
	st, err := NewStack(w, pes(pl), smallCfg(), layers, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var want [][]float32
	e.Go("modes", func(p *sim.Proc) {
		st.StepReport(p, graph.Eager)
		for _, l := range st.Layers {
			want = append(want, append([]float32(nil), l.Op.Recv.On(0).Data()...))
		}
		st.Executor().Chunks = 2
		for _, mode := range []graph.Mode{graph.Compiled, graph.Pipelined, graph.Wavefront, graph.Auto} {
			st.StepReport(p, mode)
			for li, l := range st.Layers {
				got := l.Op.Recv.On(0).Data()
				for i := range want[li] {
					if got[i] != want[li][i] {
						t.Fatalf("%v layer %d elem %d: %g != eager %g", mode, li, i, got[i], want[li][i])
					}
				}
			}
		}
	})
	e.Run()
}

// TestStackLayersChainThroughCombine verifies layer l's gate waits for
// layer l-1's combine — the stack is one graph, not L separate runs.
func TestStackLayersChainThroughCombine(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, false)
	st, err := NewStack(w, pes(pl), smallCfg(), 2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rep *graph.Report
	e.Go("step", func(p *sim.Proc) { rep = st.StepReport(p, graph.Eager) })
	e.Run()
	if len(rep.Nodes) != 10 { // 5 nodes per layer
		t.Fatalf("stack graph has %d nodes, want 10", len(rep.Nodes))
	}
	if rep.Node("l1.gate").Start < rep.Node("l0.combine").End {
		t.Error("layer 1 gate ran before layer 0 combine finished")
	}
}

func TestStackPipelinedSplitsEveryLayer(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, false)
	st, err := NewStack(w, pes(pl), smallCfg(), 3, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st.Executor().Chunks = 2
	var rep *graph.Report
	e.Go("step", func(p *sim.Proc) { rep = st.StepReport(p, graph.Pipelined) })
	e.Run()
	if len(rep.Select.Decisions) != 3 {
		t.Fatalf("decisions = %+v, want the pair of every layer", rep.Select.Decisions)
	}
	for _, d := range rep.Select.Decisions {
		if d.Choice != graph.Pipelined || d.Chunks != 2 {
			t.Errorf("decision %+v, want pipelined@2", d)
		}
	}
	// Dispatch All-to-Alls are generic collectives: left whole.
	if rep.Select.Unmatched != 3 {
		t.Errorf("unmatched = %d, want the 3 dispatch collectives", rep.Select.Unmatched)
	}
}

// TestStackWavefrontChainsLayers verifies the wavefront partition
// rewires the MoE stack's layer boundaries to chunk granularity: the
// rowwise gate/dispatch/ffn1 nodes split, join edges are recorded, and
// layer 1's first gate chunk starts before layer 0's combine chain has
// fully drained — the inter-layer overlap per-pair pipelining cannot
// express.
func TestStackWavefrontChainsLayers(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, false)
	st, err := NewStack(w, pes(pl), smallCfg(), 2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st.Executor().Chunks = 2
	var rep *graph.Report
	e.Go("step", func(p *sim.Proc) { rep = st.StepReport(p, graph.Wavefront) })
	e.Run()
	if len(rep.Select.Decisions) != 2 {
		t.Fatalf("plan = %+v", rep.Select)
	}
	for _, d := range rep.Select.Decisions {
		if d.Choice != graph.Wavefront || d.Chunks != 2 {
			t.Errorf("decision %+v, want wavefront@2", d)
		}
	}
	// Per layer: gate, dispatch, and ffn1 split rowwise.
	if rep.Select.RowSplits != 6 {
		t.Errorf("row splits = %d, want 6", rep.Select.RowSplits)
	}
	// Joins: within each layer gate->dispatch->ffn1->pair, plus the
	// layer-boundary combine->gate join.
	if len(rep.Select.Joins) < 7 {
		t.Errorf("joins = %d (%+v), want >= 7", len(rep.Select.Joins), rep.Select.Joins)
	}
	boundary := false
	for _, j := range rep.Select.Joins {
		if j.Producer == "l0.combine" && j.Consumer == "l1.gate" {
			boundary = true
		}
	}
	if !boundary {
		t.Errorf("no layer-boundary join recorded: %+v", rep.Select.Joins)
	}
	g1 := rep.Node("l1.gate#0")
	drain := rep.Node("l0.combine#1")
	if g1 == nil || drain == nil {
		t.Fatalf("missing wavefront chunk nodes: %+v", rep.Nodes)
	}
	if g1.Start >= drain.End {
		t.Errorf("layer 1 gate chunk 0 started at %v, after layer 0's combine fully drained at %v — no wavefront",
			g1.Start, drain.End)
	}
}

func TestStackRejectsBadShapes(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, false)
	if _, err := NewStack(w, pes(pl), smallCfg(), 0, core.DefaultConfig()); err == nil {
		t.Error("zero-layer stack must error")
	}
	bad := smallCfg()
	bad.TopK = 99
	if _, err := NewStack(w, pes(pl), bad, 2, core.DefaultConfig()); err == nil {
		t.Error("invalid layer config must propagate")
	}
}
