package fusedcc

import "testing"

// TestGraphCompileViaFacade drives the whole public workflow: build a
// graph from specs, run it eagerly, compile it, and verify the fusion
// pass produced the fused operator with bit-exact results.
func TestGraphCompileViaFacade(t *testing.T) {
	sys, err := NewScaleUp(4, Options{Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	g := sys.NewGraph(DefaultOperatorConfig())
	mv, err := g.GEMVFromSpec("mv", GEMVSpec{M: 64, K: 16, TileM: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.AllReduce("ar", mv)
	if err != nil {
		t.Fatal(err)
	}

	eager := sys.RunGraph(g, Eager)
	want := append([]float32(nil), out.Symm().On(0).Data()...)

	compiled := sys.RunGraph(g, Compiled)
	if compiled.Select == nil || len(compiled.Select.Decisions) != 1 {
		t.Fatalf("compile report = %+v", compiled.Select)
	}
	if d := compiled.Select.Decisions[0]; d.Pattern != PatternGEMVAllReduce || d.Choice != Compiled {
		t.Errorf("decision = %+v", d)
	}
	got := out.Symm().On(0).Data()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d: compiled %g != eager %g", i, got[i], want[i])
		}
	}
	if eager.Duration() <= 0 || compiled.Duration() <= 0 {
		t.Error("zero-duration graph runs")
	}
	if len(eager.Nodes) != 2 || len(compiled.Nodes) != 1 {
		t.Errorf("node reports: eager %d compiled %d", len(eager.Nodes), len(compiled.Nodes))
	}
}

// TestSpecConstructorsDeterministic verifies the spec-struct
// constructors are reproducible: the same seeded spec on two fresh
// systems yields bit-identical operator outputs (the property the
// removed positional wrappers were pinned against).
func TestSpecConstructorsDeterministic(t *testing.T) {
	run := func() []float32 {
		sys, err := NewScaleUp(4, Options{Functional: true})
		if err != nil {
			t.Fatal(err)
		}
		op, err := sys.NewGEMVAllReduce(GEMVSpec{M: 64, K: 16, TileM: 8, Seed: 9}, DefaultOperatorConfig())
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(func(p *Proc) { op.RunFused(p) })
		return append([]float32(nil), op.Out.On(0).Data()...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("elem %d: first run %g != second run %g", i, a[i], b[i])
		}
	}
}

// TestGraphPipelinedViaFacade drives the pipelined mode end to end
// through the public API: partition a spec-built pair, run it, and
// verify bit-exactness against eager plus stream statistics.
func TestGraphPipelinedViaFacade(t *testing.T) {
	sys, err := NewScaleUp(4, Options{Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	g := sys.NewGraph(DefaultOperatorConfig())
	mv, err := g.GEMVFromSpec("mv", GEMVSpec{M: 64, K: 16, TileM: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.AllReduce("ar", mv)
	if err != nil {
		t.Fatal(err)
	}

	eager := sys.RunGraph(g, Eager)
	want := append([]float32(nil), out.Symm().On(0).Data()...)

	var (
		x   GraphExecutor
		rep *GraphReport
	)
	x.Chunks = 2
	sys.Run(func(p *Proc) { rep = x.Execute(p, g, Pipelined) })
	if rep.Select == nil || len(rep.Select.Decisions) != 1 {
		t.Fatalf("partition report = %+v", rep.Select)
	}
	if d := rep.Select.Decisions[0]; d.Pattern != PatternGEMVAllReduce || d.Choice != Pipelined || d.Chunks != 2 {
		t.Errorf("decision = %+v", d)
	}
	got := out.Symm().On(0).Data()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d: pipelined %g != eager %g", i, got[i], want[i])
		}
	}
	if len(rep.Streams) == 0 {
		t.Error("pipelined run reported no stream statistics")
	}
	if len(eager.Nodes) != 2 || len(rep.Nodes) != 4 {
		t.Errorf("node reports: eager %d pipelined %d", len(eager.Nodes), len(rep.Nodes))
	}

	// The standalone Partition pass is exported too.
	pg, prep := Partition(g, 2)
	if len(prep.Decisions) != 1 || prep.Decisions[0].Choice != Pipelined || len(pg.Nodes()) != 4 {
		t.Errorf("Partition: %+v, %d nodes", prep.Decisions, len(pg.Nodes()))
	}
}

// TestGraphAutoViaFacade drives the Auto execution mode and the
// standalone Select pass through the public API: the cost-model
// decision report must be populated and the mixed-mode run bit-exact
// with eager.
func TestGraphAutoViaFacade(t *testing.T) {
	sys, err := NewScaleUp(4, Options{Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	g := sys.NewGraph(DefaultOperatorConfig())
	mv, err := g.GEMVFromSpec("mv", GEMVSpec{M: 64, K: 16, TileM: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.AllReduce("ar", mv)
	if err != nil {
		t.Fatal(err)
	}

	sys.RunGraph(g, Eager)
	want := append([]float32(nil), out.Symm().On(0).Data()...)

	rep := sys.RunGraph(g, Auto)
	if rep.Select == nil || len(rep.Select.Decisions) != 1 {
		t.Fatalf("select report = %+v", rep.Select)
	}
	d := rep.Select.Decisions[0]
	if d.Pattern != PatternGEMVAllReduce || d.EagerCost <= 0 || d.FusedCost <= 0 {
		t.Errorf("decision = %+v", d)
	}
	got := out.Symm().On(0).Data()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d: auto %g != eager %g", i, got[i], want[i])
		}
	}
	if len(rep.Streams) == 0 {
		t.Error("auto run reported no stream statistics")
	}

	// The standalone Select pass is exported too.
	_, srep := Select(g)
	if len(srep.Decisions) != 1 {
		t.Errorf("Select: %d decisions", len(srep.Decisions))
	}
}

// TestStackViaFacade builds a tiny layered graph with the facade Stack
// helper and the stack constructors.
func TestStackViaFacade(t *testing.T) {
	sys, err := NewScaleUp(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := sys.NewGraph(DefaultOperatorConfig())
	out, err := Stack(g, 2, func(l int, prev GraphValue) (GraphValue, error) {
		return g.PerRank("layer", func(p *Proc, rank, pe int) {}, prev), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Producer() == nil || len(g.Nodes()) != 2 {
		t.Errorf("stacked graph has %d nodes", len(g.Nodes()))
	}

	dec, err := sys.NewTransformerDecoder(DecoderConfig{Layers: 2, Hidden: 256, FFN: 512, TileM: 8, Seed: 1}, DefaultOperatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(dec.Graph().Nodes()); got != 10 {
		t.Errorf("decoder graph has %d nodes, want 10", got)
	}
	mc := MoEConfig()
	mc.TokensPerGPU, mc.ModelDim, mc.FFNDim, mc.TileM, mc.TileN = 16, 32, 64, 4, 8
	st, err := sys.NewMoEStack(mc, 2, DefaultOperatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.Graph().Nodes()); got != 10 {
		t.Errorf("moe stack graph has %d nodes, want 10", got)
	}
}

// TestWavefrontBitExactMatrix is the wavefront correctness matrix: the
// Wavefront execution mode (cross-layer chunk-granular dependencies)
// must be bit-exact with eager on the paper's scale-up (1x8), scale-out
// (8x1), and hybrid (2x4) shapes for all three multi-layer stack types
// — decoder (which provably cannot wavefront and falls back to per-pair
// pipelining), multi-group DLRM, and the token-banded MoE stack (which
// wavefronts across every layer boundary).
func TestWavefrontBitExactMatrix(t *testing.T) {
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
			sys, err := NewCluster(sh.nodes, sh.gpus, Options{Functional: true})
			if err != nil {
				t.Fatal(err)
			}
			type stack struct {
				name string
				step func(p *Proc, mode ExecMode)
				outs func() [][]float32
			}
			dec, err := sys.NewTransformerDecoder(DecoderConfig{Layers: 2, Hidden: 64, FFN: 128, TileM: 8, Seed: 3}, DefaultOperatorConfig())
			if err != nil {
				t.Fatal(err)
			}
			dec.Executor().Chunks = 2
			dcfg := DLRMConfig()
			dcfg.TablesPerGPU, dcfg.TableRows, dcfg.EmbeddingDim = 2, 128, 16
			dcfg.GlobalBatch, dcfg.AvgPooling, dcfg.SliceRows = 64, 4, 8
			dcfg.Groups, dcfg.Seed = 2, 7
			dl, err := sys.NewDLRM(dcfg, DefaultOperatorConfig())
			if err != nil {
				t.Fatal(err)
			}
			dl.Executor().Chunks = 2
			mcfg := MoEConfig()
			mcfg.TokensPerGPU, mcfg.ModelDim, mcfg.FFNDim = 16, 24, 32
			mcfg.TileM, mcfg.TileN, mcfg.Seed = 4, 8, 5
			mo, err := sys.NewMoEStack(mcfg, 2, DefaultOperatorConfig())
			if err != nil {
				t.Fatal(err)
			}
			mo.Executor().Chunks = 2
			stacks := []stack{
				{"decoder", func(p *Proc, m ExecMode) { dec.StepReport(p, m) }, func() (o [][]float32) {
					for _, b := range dec.Blocks {
						o = append(o, append([]float32(nil), b.Out.On(0).Data()...))
					}
					return
				}},
				{"dlrm", func(p *Proc, m ExecMode) { dl.StepReport(p, m) }, func() (o [][]float32) {
					for _, op := range dl.Ops {
						o = append(o, append([]float32(nil), op.Out.On(0).Data()...))
					}
					return
				}},
				{"moe", func(p *Proc, m ExecMode) { mo.StepReport(p, m) }, func() (o [][]float32) {
					for _, l := range mo.Layers {
						o = append(o, append([]float32(nil), l.Op.Recv.On(0).Data()...))
					}
					return
				}},
			}
			for _, st := range stacks {
				st := st
				var want, got [][]float32
				sys.Run(func(p *Proc) {
					st.step(p, Eager)
					want = st.outs()
					st.step(p, Wavefront)
					got = st.outs()
				})
				for l := range want {
					for i := range want[l] {
						if got[l][i] != want[l][i] {
							t.Fatalf("%s layer %d elem %d: wavefront %g != eager %g", st.name, l, i, got[l][i], want[l][i])
						}
					}
				}
			}
		})
	}
}

// TestSpecValidation verifies invalid specs surface as errors.
func TestSpecValidation(t *testing.T) {
	sys, err := NewScaleUp(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NewGEMVAllReduce(GEMVSpec{M: 0, K: 8, TileM: 4}, DefaultOperatorConfig()); err == nil {
		t.Error("zero-M GEMV spec must error")
	}
	if _, err := sys.NewGEMVAllReduce(GEMVSpec{M: -1, K: 8, TileM: 4}, DefaultOperatorConfig()); err == nil {
		t.Error("negative-M GEMV spec must error, not panic")
	}
	if _, err := sys.NewGEMMAllToAll(GEMMSpec{Tokens: -4, N: 8, K: 4, TileM: 2, TileN: 2}, DefaultOperatorConfig()); err == nil {
		t.Error("negative-token GEMM spec must error, not panic")
	}
	if _, err := sys.NewEmbeddingAllToAll(EmbeddingSpec{TablesPerGPU: 0}, DefaultOperatorConfig()); err == nil {
		t.Error("zero-table embedding spec must error")
	}
	if _, err := sys.NewGEMMAllToAll(GEMMSpec{Tokens: 4, N: 0, K: 4, TileM: 2, TileN: 2}, DefaultOperatorConfig()); err == nil {
		t.Error("zero-N GEMM spec must error")
	}
}

// TestExperimentRegistryAliases verifies the table-driven registry
// resolves aliases and keeps Experiments() in sync with dispatch.
func TestExperimentRegistryAliases(t *testing.T) {
	for _, id := range Experiments() {
		found := false
		for _, want := range []string{"table1", "table2", "fig8", "fig9", "fig10", "fig11", "fig12",
			"fig13", "fig14", "fig15", "fig16", "pipeline", "auto", "wavefront", "serving", "chaos",
			"astra", "ablation:zerocopy", "ablation:slicesize", "ablation:occupancy", "ablation:kernelsplit"} {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected experiment id %q", id)
		}
	}
	if len(Experiments()) != 21 {
		t.Errorf("experiment catalogue has %d entries, want 21", len(Experiments()))
	}
}
