package dlrm

import (
	"testing"

	"fusedcc/internal/core"
	"fusedcc/internal/graph"
	"fusedcc/internal/kernels"
	"fusedcc/internal/sim"
)

// TestCompiledMatchesHandWiredFused pins the compiler-produced fused
// forward against the pre-graph hand-wired sequence (bottom MLP
// concurrent with RunFused, then interaction + top MLP): the compiled
// makespan must be at least as good.
func TestCompiledMatchesHandWiredFused(t *testing.T) {
	cfg := smallCfg()
	cfg.TablesPerGPU = 8
	cfg.GlobalBatch = 128
	cfg.EmbeddingDim = 64

	handWired := func() sim.Duration {
		e := sim.NewEngine()
		pl, w := testWorld(e, 2, 1, false)
		m, err := New(w, pes(pl), cfg, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var d sim.Duration
		e.Go("hand", func(p *sim.Proc) {
			start := e.Now()
			wg := sim.NewWaitGroup(e)
			wg.Add(len(m.PEs) + 1)
			for _, pe := range m.PEs {
				pe := pe
				e.Go("bot", func(rp *sim.Proc) {
					mlp := &kernels.MLP{Widths: cfg.BottomMLP, Batch: m.LocalBatch()}
					mlp.Forward(rp, pl.Device(pe))
					wg.Done()
				})
			}
			e.Go("emb", func(rp *sim.Proc) {
				m.EmbOp.RunFused(rp)
				wg.Done()
			})
			wg.Wait(p)
			wg2 := sim.NewWaitGroup(e)
			wg2.Add(len(m.PEs))
			for _, pe := range m.PEs {
				pe := pe
				e.Go("top", func(rp *sim.Proc) {
					dev := pl.Device(pe)
					m.interaction(rp, dev)
					top := &kernels.MLP{Widths: cfg.TopMLP, Batch: m.LocalBatch()}
					top.Forward(rp, dev)
					wg2.Done()
				})
			}
			wg2.Wait(p)
			d = e.Now().Sub(start)
		})
		e.Run()
		return d
	}()

	compiled := func() sim.Duration {
		e := sim.NewEngine()
		pl, w := testWorld(e, 2, 1, false)
		m, err := New(w, pes(pl), cfg, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var rep *graph.Report
		e.Go("fwd", func(p *sim.Proc) { rep = m.StepReport(p, graph.Compiled) })
		e.Run()
		return rep.Duration()
	}()

	if compiled > handWired {
		t.Errorf("compiled DLRM forward %v worse than hand-wired fused %v", compiled, handWired)
	}
}

// TestForwardGraphShape verifies the forward graph structure and its
// compilation: one fusion (embedding pair), bottom MLP untouched.
func TestForwardGraphShape(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, 2, 1, false)
	m, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := m.ForwardGraph()
	if len(g.Nodes()) != 4 {
		t.Fatalf("forward graph has %d nodes, want 4", len(g.Nodes()))
	}
	cg, rep := graph.Compile(g)
	if len(rep.Decisions) != 1 || rep.Decisions[0].Pattern != graph.PatternEmbeddingAllToAll || rep.Decisions[0].Choice != graph.Compiled {
		t.Fatalf("decisions = %+v", rep.Decisions)
	}
	if len(cg.Nodes()) != 3 {
		t.Fatalf("compiled forward graph has %d nodes, want 3", len(cg.Nodes()))
	}
	if cg.Node("bottom_mlp") == nil {
		t.Error("bottom MLP node lost in compilation")
	}
}

// TestTrainGraphCompilesBothExchanges verifies the training graph gets
// both the forward pair fusion and the gradient-exchange rewrite while
// the data-parallel AllReduce stays eager.
func TestTrainGraphCompilesBothExchanges(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, 2, 1, false)
	m, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cg, rep := graph.Compile(m.TrainGraph())
	if len(rep.Decisions) != 2 {
		t.Fatalf("decisions = %+v", rep.Decisions)
	}
	if rep.Unmatched != 1 {
		t.Errorf("MLP gradient AllReduce must stay eager: %d unmatched", rep.Unmatched)
	}
	if n := cg.Node("emb_grad_exchange"); n == nil || n.Op().OpName() != "fused::embedding_grad_exchange" {
		t.Error("gradient exchange not rewritten to the fused op")
	}
}
