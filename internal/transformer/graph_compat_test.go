package transformer

import (
	"testing"

	"fusedcc/internal/core"
	"fusedcc/internal/graph"
	"fusedcc/internal/kernels"
	"fusedcc/internal/sim"
)

// TestCompiledMatchesHandWiredFused pins the compiler-produced fused
// path against the pre-graph hand-wired sequence (per-rank first layer
// then RunFused): the compiled makespan must be at least as good.
func TestCompiledMatchesHandWiredFused(t *testing.T) {
	cfg := Config{Hidden: 1024, FFN: 4096, TileM: 64, Seed: 3}

	handWired := func() sim.Duration {
		e := sim.NewEngine()
		pl, w := testWorld(e, false)
		f, err := New(w, pes(pl), cfg, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var d sim.Duration
		e.Go("hand", func(p *sim.Proc) {
			start := e.Now()
			wg := sim.NewWaitGroup(e)
			wg.Add(len(f.PEs))
			for s, pe := range f.PEs {
				s, pe := s, pe
				e.Go("l1", func(rp *sim.Proc) {
					dev := pl.Device(pe)
					g1 := f.gemv1[s]
					g1.Run(rp, dev, 0)
					kernels.ReLU(rp, dev, g1.Y, 0, g1.M)
					wg.Done()
				})
			}
			wg.Wait(p)
			f.Op.RunFused(p)
			d = e.Now().Sub(start)
		})
		e.Run()
		return d
	}()

	compiled := func() sim.Duration {
		e := sim.NewEngine()
		pl, w := testWorld(e, false)
		f, err := New(w, pes(pl), cfg, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var rep *graph.Report
		e.Go("step", func(p *sim.Proc) { rep = f.StepReport(p, graph.Compiled) })
		e.Run()
		return rep.Duration()
	}()

	if compiled > handWired {
		t.Errorf("compiled decode step %v worse than hand-wired fused %v", compiled, handWired)
	}
}

// TestCompilerProducesFusedNode verifies the fused path really comes
// from the fusion pass, not hand-wiring: the compiled graph contains
// the fused GEMV + AllReduce node and no eager pair.
func TestCompilerProducesFusedNode(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, false)
	f, err := New(w, pes(pl), smallCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cg, rep := graph.Compile(f.Graph())
	if len(rep.Decisions) != 1 || rep.Decisions[0].Pattern != graph.PatternGEMVAllReduce || rep.Decisions[0].Choice != graph.Compiled {
		t.Fatalf("decisions = %+v", rep.Decisions)
	}
	for _, n := range cg.Nodes() {
		if n.Op().OpName() == "gemv" || n.Op().OpName() == "all_reduce" {
			t.Errorf("eager pair node %q survived compilation", n.Name())
		}
	}
}
