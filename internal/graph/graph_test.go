package graph

import (
	"testing"

	"fusedcc/internal/core"
	"fusedcc/internal/platform"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

// testWorld builds a functional nodes x gpus cluster.
func testWorld(t *testing.T, nodes, gpus int) (*platform.Platform, *shmem.World) {
	t.Helper()
	e := sim.NewEngine()
	cfg := platform.Cluster(nodes, gpus)
	cfg.GPU.Functional = true
	pl, err := platform.New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl, shmem.NewWorld(pl, shmem.DefaultConfig())
}

func allPEs(pl *platform.Platform) []int {
	pes := make([]int, pl.NDevices())
	for i := range pes {
		pes[i] = i
	}
	return pes
}

// drive runs fn as the host program to completion.
func drive(pl *platform.Platform, fn func(p *sim.Proc)) {
	pl.E.Go("test", fn)
	pl.E.Run()
}

func mustValue(t *testing.T) func(Value, error) Value {
	return func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// testSpecs returns pair specs sized for a k-rank functional cluster.
func testSpecs(k int) (GEMVSpec, EmbeddingSpec, GEMMSpec) {
	return GEMVSpec{M: 64, K: 16, TileM: 8, Seed: 3},
		EmbeddingSpec{TablesPerGPU: 2, Rows: 64, Dim: 8, GlobalBatch: 8 * k, AvgPooling: 4, SliceRows: 4, Seed: 5},
		GEMMSpec{Tokens: 8, N: 16, K: 8, TileM: 4, TileN: 8, Seed: 7}
}

func TestExecutorRunsNodesInDependencyOrder(t *testing.T) {
	pl, w := testWorld(t, 1, 2)
	g := New(w, allPEs(pl), core.DefaultConfig())
	var order []string
	step := func(name string, d sim.Duration) func(p *sim.Proc, rank, pe int) {
		return func(p *sim.Proc, rank, pe int) {
			if rank == 0 {
				order = append(order, name)
			}
			p.Sleep(d)
		}
	}
	a := g.PerRank("a", step("a", 100))
	b := g.PerRank("b", step("b", 100), a)
	g.PerRank("c", step("c", 100), b)

	var rep *Report
	drive(pl, func(p *sim.Proc) { rep = Run(p, g, Eager) })
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("execution order %v", order)
	}
	if rep.Duration() < 300 {
		t.Errorf("chained nodes must serialize: %v", rep.Duration())
	}
}

func TestExecutorOverlapsIndependentNodes(t *testing.T) {
	pl, w := testWorld(t, 1, 2)
	g := New(w, allPEs(pl), core.DefaultConfig())
	sleep := func(d sim.Duration) func(p *sim.Proc, rank, pe int) {
		return func(p *sim.Proc, rank, pe int) { p.Sleep(d) }
	}
	g.PerRank("left", sleep(1000))
	g.PerRank("right", sleep(1000))

	var rep *Report
	drive(pl, func(p *sim.Proc) { rep = Run(p, g, Eager) })
	if rep.Duration() >= 2000 {
		t.Fatalf("independent nodes must overlap, makespan %v", rep.Duration())
	}
}

func TestCompileRewritesGEMVAllReduce(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	sp, _, _ := testSpecs(4)
	v := mustValue(t)(g.GEMVFromSpec("mv", sp))
	if _, err := g.AllReduce("ar", v); err != nil {
		t.Fatal(err)
	}

	cg, rep := Compile(g)
	if len(rep.Decisions) != 1 || rep.Decisions[0].Pattern != PatternGEMVAllReduce || rep.Decisions[0].Choice != Compiled {
		t.Fatalf("decisions = %+v", rep.Decisions)
	}
	if len(cg.Nodes()) != 1 {
		t.Fatalf("compiled graph has %d nodes, want 1", len(cg.Nodes()))
	}
	n := cg.Nodes()[0]
	if n.Op().OpName() != "fused::gemv_allreduce" || n.Op().Kind() != KindFused {
		t.Errorf("fused node op %q kind %v", n.Op().OpName(), n.Op().Kind())
	}
	if g.Node("mv") == nil || g.Node("ar") == nil {
		t.Error("input graph was mutated")
	}
}

func TestCompileRewritesEmbeddingAllToAll(t *testing.T) {
	pl, w := testWorld(t, 2, 1)
	g := New(w, allPEs(pl), core.DefaultConfig())
	_, sp, _ := testSpecs(2)
	v := mustValue(t)(g.EmbeddingBagFromSpec("pool", sp))
	if _, err := g.AllToAll("a2a", v); err != nil {
		t.Fatal(err)
	}

	cg, rep := Compile(g)
	if len(rep.Decisions) != 1 || rep.Decisions[0].Pattern != PatternEmbeddingAllToAll || rep.Decisions[0].Choice != Compiled {
		t.Fatalf("decisions = %+v", rep.Decisions)
	}
	if got := cg.Nodes()[0].Op().OpName(); got != "fused::embedding_all2all" {
		t.Errorf("fused op %q", got)
	}
}

func TestCompileRewritesGEMMAllToAll(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	_, _, sp := testSpecs(4)
	v := mustValue(t)(g.MatMulFromSpec("mm", sp))
	if _, err := g.AllToAll("combine", v); err != nil {
		t.Fatal(err)
	}

	cg, rep := Compile(g)
	if len(rep.Decisions) != 1 || rep.Decisions[0].Pattern != PatternGEMMAllToAll || rep.Decisions[0].Choice != Compiled {
		t.Fatalf("decisions = %+v", rep.Decisions)
	}
	if got := cg.Nodes()[0].Op().OpName(); got != "fused::gemm_all2all" {
		t.Errorf("fused op %q", got)
	}
}

func TestCompileLeavesMultiConsumerPairAlone(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	sp, _, _ := testSpecs(4)
	v := mustValue(t)(g.GEMVFromSpec("mv", sp))
	if _, err := g.AllReduce("ar", v); err != nil {
		t.Fatal(err)
	}
	// A second consumer reads the staged partial outputs: fusing would
	// hide the intermediate it depends on.
	g.PerRank("probe", func(p *sim.Proc, rank, pe int) {}, v)

	cg, rep := Compile(g)
	if len(rep.Decisions) != 0 {
		t.Fatalf("multi-consumer pair must not fuse: %+v", rep.Decisions)
	}
	if len(cg.Nodes()) != 3 {
		t.Fatalf("compiled graph has %d nodes, want 3", len(cg.Nodes()))
	}
	if rep.Unmatched != 1 {
		t.Errorf("unmatched collectives = %d, want 1", rep.Unmatched)
	}
}

func TestCompileLeavesGenericCollectivesAlone(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	grads := w.Malloc(256)
	g.AllReduceSymm("grads", grads, 0, 256)

	cg, rep := Compile(g)
	if len(rep.Decisions) != 0 || rep.Unmatched != 1 {
		t.Fatalf("generic collective must stay eager: %+v", rep)
	}
	if got := cg.Nodes()[0].Op().Kind(); got != KindCollective {
		t.Errorf("kind %v", got)
	}
}

func TestCompileRewritesGradExchange(t *testing.T) {
	pl, w := testWorld(t, 2, 1)
	g := New(w, allPEs(pl), core.DefaultConfig())
	_, sp, _ := testSpecs(2)
	v := mustValue(t)(g.EmbeddingBagFromSpec("pool", sp))
	out, err := g.AllToAll("a2a", v)
	if err != nil {
		t.Fatal(err)
	}
	gx := core.NewEmbeddingGradExchange(v.payload.(*pairOp).pair.(*core.EmbeddingAllToAll))
	g.GradExchange("grad", gx, out)

	cg, rep := Compile(g)
	if len(rep.Decisions) != 2 || rep.Decisions[1].Pattern != PatternGradExchange || rep.Decisions[1].Choice != Compiled {
		t.Fatalf("decisions = %+v", rep.Decisions)
	}
	last := cg.Nodes()[len(cg.Nodes())-1]
	if last.Op().OpName() != "fused::embedding_grad_exchange" {
		t.Errorf("grad node op %q", last.Op().OpName())
	}
	if len(last.Inputs()) != 1 {
		t.Errorf("grad node inputs %d, want 1 (the fused pair)", len(last.Inputs()))
	}
}

func TestCrossGraphValueRejected(t *testing.T) {
	pl, w := testWorld(t, 1, 2)
	g1 := New(w, allPEs(pl), core.DefaultConfig())
	v := g1.PerRank("a", func(p *sim.Proc, rank, pe int) {})
	g2 := New(w, allPEs(pl), core.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("cross-graph dependency must panic at build time")
		}
	}()
	g2.PerRank("b", func(p *sim.Proc, rank, pe int) {}, v)
}

func TestCollectiveBuildersRejectWrongPayloads(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	tok := g.PerRank("opaque", func(p *sim.Proc, rank, pe int) {})
	if _, err := g.AllReduce("ar", tok); err == nil {
		t.Error("AllReduce over an opaque value must error")
	}
	if _, err := g.AllToAll("a2a", tok); err == nil {
		t.Error("AllToAll over an opaque value must error")
	}
}

// buildTriple assembles the three compute→collective pairs as one graph
// and returns the pair output values.
func buildTriple(t *testing.T, g *Graph, k int) (gemv, emb, gemm Value) {
	t.Helper()
	gsp, esp, msp := testSpecs(k)
	gv := mustValue(t)(g.GEMVFromSpec("mv", gsp))
	gemv = mustValue(t)(g.AllReduce("ar", gv))
	ev := mustValue(t)(g.EmbeddingBagFromSpec("pool", esp))
	emb = mustValue(t)(g.AllToAll("emb_a2a", ev))
	mv := mustValue(t)(g.MatMulFromSpec("mm", msp))
	gemm = mustValue(t)(g.AllToAll("combine", mv))
	return
}

// TestCompiledBitExact verifies compiled-vs-eager bit-exactness of all
// three patterns on the paper's scale-up shape, the scale-out shape,
// and a hybrid cluster.
func TestCompiledBitExact(t *testing.T) {
	shapes := []struct {
		name        string
		nodes, gpus int
	}{
		{"scale-up-1x8", 1, 8},
		{"scale-out-8x1", 8, 1},
		{"hybrid-2x4", 2, 4},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			pl, w := testWorld(t, sh.nodes, sh.gpus)
			k := sh.nodes * sh.gpus
			g := New(w, allPEs(pl), core.DefaultConfig())
			gemv, emb, gemm := buildTriple(t, g, k)
			vals := []struct {
				name string
				v    Value
			}{{"gemv", gemv}, {"emb", emb}, {"gemm", gemm}}

			var eager, compiled *Report
			snapshot := map[string][][]float32{}
			drive(pl, func(p *sim.Proc) {
				eager = Run(p, g, Eager)
				for _, nv := range vals {
					name, v := nv.name, nv.v
					for _, pe := range g.PEs() {
						snapshot[name] = append(snapshot[name], append([]float32(nil), v.Symm().On(pe).Data()...))
					}
				}
				compiled = Run(p, g, Compiled)
			})
			if len(compiled.Select.Decisions) != 3 {
				t.Fatalf("compiled %d pairs, want 3: %+v", len(compiled.Select.Decisions), compiled.Select.Decisions)
			}
			for _, d := range compiled.Select.Decisions {
				if d.Choice != Compiled {
					t.Errorf("decision %+v not fused", d)
				}
			}
			for _, nv := range vals {
				name, v := nv.name, nv.v
				for i, pe := range g.PEs() {
					got := v.Symm().On(pe).Data()
					want := snapshot[name][i]
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("%s pe %d elem %d: compiled %g != eager %g", name, pe, j, got[j], want[j])
						}
					}
				}
			}
			if compiled.Duration() >= eager.Duration() {
				t.Errorf("compiled %v not faster than eager %v", compiled.Duration(), eager.Duration())
			}
			if compiled.RemotePuts() == 0 && k > 1 {
				t.Error("fused nodes recorded no GPU-initiated communication")
			}
		})
	}
}

func TestReportPerNodeTiming(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	sp, _, _ := testSpecs(4)
	v := mustValue(t)(g.GEMVFromSpec("mv", sp))
	if _, err := g.AllReduce("ar", v); err != nil {
		t.Fatal(err)
	}

	var rep *Report
	drive(pl, func(p *sim.Proc) { rep = Run(p, g, Eager) })
	mv, ar := rep.Node("mv"), rep.Node("ar")
	if mv == nil || ar == nil {
		t.Fatalf("missing node reports: %+v", rep.Nodes)
	}
	if mv.Duration() <= 0 || ar.Duration() <= 0 {
		t.Errorf("node durations mv=%v ar=%v", mv.Duration(), ar.Duration())
	}
	if ar.Start < mv.End {
		t.Errorf("collective started %v before its compute input finished %v", ar.Start, mv.End)
	}
	if rep.String() == "" {
		t.Error("empty report rendering")
	}
}
