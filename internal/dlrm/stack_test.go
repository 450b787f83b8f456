package dlrm

import (
	"testing"

	"fusedcc/internal/core"
	"fusedcc/internal/graph"
	"fusedcc/internal/sim"
)

// TestMultiGroupBitExactAcrossModes runs a 2-group (multi-table,
// multi-interaction) DLRM in all three execution modes and verifies
// every group's exchanged embedding output is bit-identical.
func TestMultiGroupBitExactAcrossModes(t *testing.T) {
	cfg := smallCfg()
	cfg.Groups = 2
	e := sim.NewEngine()
	pl, w := testWorld(e, 2, 2, true)
	m, err := New(w, pes(pl), cfg, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Ops) != 2 || m.Ops[0] != m.EmbOp {
		t.Fatalf("Ops = %d entries, EmbOp aliasing broken", len(m.Ops))
	}
	var want [][]float32
	e.Go("modes", func(p *sim.Proc) {
		m.StepReport(p, graph.Eager)
		for _, op := range m.Ops {
			want = append(want, append([]float32(nil), op.Out.On(0).Data()...))
		}
		m.Executor().Chunks = 2
		for _, mode := range []graph.Mode{graph.Compiled, graph.Pipelined, graph.Wavefront, graph.Auto} {
			m.StepReport(p, mode)
			for grp, op := range m.Ops {
				got := op.Out.On(0).Data()
				for i := range want[grp] {
					if got[i] != want[grp][i] {
						t.Fatalf("%v group %d elem %d: %g != eager %g", mode, grp, i, got[i], want[grp][i])
					}
				}
			}
		}
	})
	e.Run()
}

// TestMultiGroupGraphShape verifies the multi-interaction structure:
// per-group exchange branches, per-group interactions, one top MLP
// joining them — and a training graph with one gradient exchange per
// group.
func TestMultiGroupGraphShape(t *testing.T) {
	cfg := smallCfg()
	cfg.Groups = 3
	e := sim.NewEngine()
	pl, w := testWorld(e, 1, 4, false)
	m, err := New(w, pes(pl), cfg, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := m.ForwardGraph()
	// bottom + 3*(pool, a2a, interaction) + top.
	if got := len(g.Nodes()); got != 11 {
		t.Fatalf("forward graph has %d nodes, want 11", got)
	}
	for _, name := range []string{"emb_pool[g0]", "emb_a2a[g2]", "interaction[g1]", "top_mlp"} {
		if g.Node(name) == nil {
			t.Errorf("missing node %q", name)
		}
	}
	top := g.Node("top_mlp")
	if len(top.Inputs()) != 3 {
		t.Errorf("top MLP joins %d interactions, want 3", len(top.Inputs()))
	}
	tg := m.TrainGraph()
	exchanges := 0
	for _, n := range tg.Nodes() {
		if n.Op().OpName() == "embedding_grad_exchange" {
			exchanges++
		}
	}
	if exchanges != 3 {
		t.Errorf("training graph has %d gradient exchanges, want 3", exchanges)
	}
}

// TestSingleGroupKeepsHistoricalShape pins the Groups<=1 graph to the
// pre-multi-group node structure, so existing callers and compat tests
// see identical schedules.
func TestSingleGroupKeepsHistoricalShape(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, 1, 4, false)
	m, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := m.ForwardGraph()
	if got := len(g.Nodes()); got != 4 {
		t.Fatalf("single-group forward graph has %d nodes, want 4", got)
	}
	for _, name := range []string{"bottom_mlp", "emb_pool", "emb_a2a", "interaction+top_mlp"} {
		if g.Node(name) == nil {
			t.Errorf("missing historical node %q", name)
		}
	}
}

// TestMultiGroupBranchesOverlap verifies the groups' exchange branches
// actually run concurrently under dataflow scheduling: the makespan of
// a 2-group model must be well under twice the single-group one.
func TestMultiGroupBranchesOverlap(t *testing.T) {
	run := func(groups int) sim.Duration {
		cfg := smallCfg()
		cfg.Groups = groups
		e := sim.NewEngine()
		pl, w := testWorld(e, 1, 4, false)
		m, err := New(w, pes(pl), cfg, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var rep *graph.Report
		e.Go("fwd", func(p *sim.Proc) { rep = m.StepReport(p, graph.Eager) })
		e.Run()
		return rep.Duration()
	}
	one, two := run(1), run(2)
	if two >= 2*one {
		t.Errorf("2-group makespan %v not overlapping vs single-group %v", two, one)
	}
}
