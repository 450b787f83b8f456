package moe

import (
	"testing"

	"fusedcc/internal/collectives"
	"fusedcc/internal/core"
	"fusedcc/internal/graph"
	"fusedcc/internal/kernels"
	"fusedcc/internal/sim"
)

// TestCompiledMatchesHandWiredFused pins the compiler-produced fused
// path against the pre-graph hand-wired sequence (gate, dispatch
// All-to-All, first GEMM + activation, RunFused): the compiled makespan
// must be at least as good.
func TestCompiledMatchesHandWiredFused(t *testing.T) {
	cfg := Config{TokensPerGPU: 256, ModelDim: 512, FFNDim: 1024, TopK: 2, TileM: 16, TileN: 128, Seed: 5}

	handWired := func() sim.Duration {
		e := sim.NewEngine()
		pl, w := testWorld(e, false)
		l, err := New(w, pes(pl), cfg, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		k := len(l.PEs)
		var d sim.Duration
		e.Go("hand", func(p *sim.Proc) {
			start := e.Now()
			wg := sim.NewWaitGroup(e)
			wg.Add(k)
			for _, pe := range l.PEs {
				pe := pe
				e.Go("gate", func(rp *sim.Proc) {
					gate := &kernels.GEMM{M: cfg.TokensPerGPU, N: k, K: cfg.ModelDim, TileM: 32, TileN: k}
					gate.Run(rp, pl.Device(pe), 0)
					wg.Done()
				})
			}
			wg.Wait(p)
			comm := collectives.New(pl, l.PEs)
			comm.AllToAll(p, l.tokensOut, l.tokensIn, l.expertRows/k*cfg.ModelDim, l.Op.Config.Collective)
			wg2 := sim.NewWaitGroup(e)
			wg2.Add(k)
			for s, pe := range l.PEs {
				s, pe := s, pe
				e.Go("ffn1", func(rp *sim.Proc) {
					dev := pl.Device(pe)
					l.gemm1[s].Run(rp, dev, 0)
					kernels.ReLU(rp, dev, l.gemm1[s].C, 0, l.expertRows*cfg.FFNDim)
					wg2.Done()
				})
			}
			wg2.Wait(p)
			l.Op.RunFused(p)
			d = e.Now().Sub(start)
		})
		e.Run()
		return d
	}()

	compiled := func() sim.Duration {
		e := sim.NewEngine()
		pl, w := testWorld(e, false)
		l, err := New(w, pes(pl), cfg, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var rep *graph.Report
		e.Go("fwd", func(p *sim.Proc) { rep = l.StepReport(p, graph.Compiled) })
		e.Run()
		return rep.Duration()
	}()

	if compiled > handWired {
		t.Errorf("compiled MoE forward %v worse than hand-wired fused %v", compiled, handWired)
	}
}

// TestCompilerFusesOnlyTheCombine verifies the pass fuses the trailing
// MatMul → AllToAll pair and leaves the dispatch collective eager.
func TestCompilerFusesOnlyTheCombine(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, false)
	l, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cg, rep := graph.Compile(l.Graph())
	if len(rep.Decisions) != 1 || rep.Decisions[0].Pattern != graph.PatternGEMMAllToAll || rep.Decisions[0].Choice != graph.Compiled {
		t.Fatalf("decisions = %+v", rep.Decisions)
	}
	if rep.Unmatched != 1 {
		t.Errorf("dispatch must stay eager: %d unmatched collectives", rep.Unmatched)
	}
	if n := cg.Node("dispatch"); n == nil || n.Op().Kind() != graph.KindCollective {
		t.Error("dispatch node missing or no longer a collective")
	}
}
