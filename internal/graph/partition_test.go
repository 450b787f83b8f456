package graph

import (
	"fmt"
	"strings"
	"testing"

	"fusedcc/internal/core"
	"fusedcc/internal/sim"
)

func TestPartitionSplitsPairIntoChunkChains(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	sp, _, _ := testSpecs(4)
	v := mustValue(t)(g.GEMVFromSpec("mv", sp))
	if _, err := g.AllReduce("ar", v); err != nil {
		t.Fatal(err)
	}

	pg, rep := Partition(g, 4)
	if len(rep.Decisions) != 1 || rep.Decisions[0].Choice != Pipelined || rep.Decisions[0].Chunks != 4 {
		t.Fatalf("decisions = %+v", rep.Decisions)
	}
	if len(pg.Nodes()) != 8 {
		t.Fatalf("partitioned graph has %d nodes, want 8 (4 chunk pairs)", len(pg.Nodes()))
	}
	// Chunk chains: compute#c depends on compute#c-1, collective#c on its
	// compute chunk and collective#c-1.
	for c := 0; c < 4; c++ {
		comp := pg.Node(fmt.Sprintf("mv#%d", c))
		coll := pg.Node(fmt.Sprintf("ar#%d", c))
		if comp == nil || coll == nil {
			t.Fatalf("missing chunk nodes for c=%d", c)
		}
		if comp.Op().Kind() != KindCompute || coll.Op().Kind() != KindCollective {
			t.Errorf("chunk %d kinds: %v/%v", c, comp.Op().Kind(), coll.Op().Kind())
		}
		wantCompDeps, wantCollDeps := 0, 1
		if c > 0 {
			wantCompDeps, wantCollDeps = 1, 2
		}
		if len(comp.Inputs()) != wantCompDeps {
			t.Errorf("compute chunk %d has %d deps, want %d", c, len(comp.Inputs()), wantCompDeps)
		}
		if len(coll.Inputs()) != wantCollDeps {
			t.Errorf("collective chunk %d has %d deps, want %d", c, len(coll.Inputs()), wantCollDeps)
		}
	}
	if g.Node("mv#0") != nil || len(g.Nodes()) != 2 {
		t.Error("input graph was mutated")
	}
	if !strings.Contains(rep.String(), "pipelined@4") {
		t.Errorf("report rendering: %q", rep.String())
	}
}

func TestPartitionClampsToOperatorGranularity(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	_, esp, _ := testSpecs(4) // 2 tables per GPU: at most 2 chunks
	v := mustValue(t)(g.EmbeddingBagFromSpec("pool", esp))
	if _, err := g.AllToAll("a2a", v); err != nil {
		t.Fatal(err)
	}
	_, rep := Partition(g, 16)
	if len(rep.Decisions) != 1 || rep.Decisions[0].Choice != Pipelined || rep.Decisions[0].Chunks != 2 {
		t.Fatalf("decisions = %+v, want clamp to 2 tables", rep.Decisions)
	}
}

func TestPartitionLeavesUnchunkablePairsWhole(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	// One output tile: cannot split into 2 chunks.
	v := mustValue(t)(g.GEMVFromSpec("mv", GEMVSpec{M: 8, K: 16, TileM: 8, Seed: 3}))
	if _, err := g.AllReduce("ar", v); err != nil {
		t.Fatal(err)
	}
	grads := w.Malloc(64)
	g.AllReduceSymm("grads", grads, 0, 64)

	pg, rep := Partition(g, 4)
	if len(rep.Decisions) != 1 || rep.Decisions[0].Choice != Eager || rep.Decisions[0].Chunks != 1 {
		t.Fatalf("single-tile pair must stay eager: %+v", rep.Decisions)
	}
	if rep.Unmatched != 1 {
		t.Errorf("unmatched collectives = %d, want 1 (the generic all-reduce)", rep.Unmatched)
	}
	if len(pg.Nodes()) != 3 {
		t.Errorf("partitioned graph has %d nodes, want 3 unchanged", len(pg.Nodes()))
	}
}

// TestPipelinedBitExact verifies pipelined-vs-eager bit-exactness of all
// three operator patterns on the paper's scale-up shape, the scale-out
// shape, and a hybrid cluster — the correctness contract of the
// partition pass (chunked phase entry points over disjoint ranges).
func TestPipelinedBitExact(t *testing.T) {
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

			var eager, pipelined *Report
			snapshot := map[string][][]float32{}
			drive(pl, func(p *sim.Proc) {
				eager = Run(p, g, Eager)
				for _, nv := range vals {
					name, v := nv.name, nv.v
					for _, pe := range g.PEs() {
						snapshot[name] = append(snapshot[name], append([]float32(nil), v.Symm().On(pe).Data()...))
					}
				}
				x := Executor{Chunks: 2}
				pipelined = x.Execute(p, g, Pipelined)
			})
			if len(pipelined.Select.Decisions) != 3 {
				t.Fatalf("partitioned %d pairs, want 3: %+v", len(pipelined.Select.Decisions), pipelined.Select.Decisions)
			}
			for _, d := range pipelined.Select.Decisions {
				if d.Choice != Pipelined || d.Chunks != 2 {
					t.Errorf("decision %+v, want pipelined@2", d)
				}
			}
			for _, nv := range vals {
				name, v := nv.name, nv.v
				for i, pe := range g.PEs() {
					got := v.Symm().On(pe).Data()
					want := snapshot[name][i]
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("%s pe %d elem %d: pipelined %g != eager %g", name, pe, j, got[j], want[j])
						}
					}
				}
			}
			if len(pipelined.Streams) != k {
				t.Fatalf("stream reports for %d PEs, want %d", len(pipelined.Streams), k)
			}
			comp, comm := pipelined.StreamOccupancy()
			if comp <= 0 || comm <= 0 {
				t.Errorf("stream occupancy compute=%.2f comm=%.2f, want both > 0", comp, comm)
			}
			if eager.Duration() <= 0 || pipelined.Duration() <= 0 {
				t.Error("zero-duration runs")
			}
		})
	}
}

// TestPipelinedOverlapsChunks verifies the schedule actually pipelines:
// with K chunks, some chunk's collective must run while a later chunk's
// compute is in flight (device stream overlap > 0), and the chunked
// node reports must interleave rather than fully serialize.
func TestPipelinedOverlapsChunks(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	v := mustValue(t)(g.GEMVFromSpec("mv", GEMVSpec{M: 512, K: 256, TileM: 8, Seed: 3}))
	if _, err := g.AllReduce("ar", v); err != nil {
		t.Fatal(err)
	}
	var rep *Report
	drive(pl, func(p *sim.Proc) {
		x := Executor{Chunks: 4}
		rep = x.Execute(p, g, Pipelined)
	})
	ar0, mv1 := rep.Node("ar#0"), rep.Node("mv#1")
	if ar0 == nil || mv1 == nil {
		t.Fatalf("missing chunk reports: %+v", rep.Nodes)
	}
	if ar0.Start >= mv1.End || mv1.Start >= ar0.End {
		t.Errorf("chunk 0's collective [%v,%v) does not overlap chunk 1's compute [%v,%v)",
			ar0.Start, ar0.End, mv1.Start, mv1.End)
	}
	overlap := sim.Duration(0)
	for _, s := range rep.Streams {
		overlap += s.Overlap
	}
	if overlap <= 0 {
		t.Error("no compute/comm stream overlap recorded")
	}
	if eff := rep.OverlapEfficiency(); eff <= 0 || eff > 1 {
		t.Errorf("overlap efficiency %.2f outside (0,1]", eff)
	}
}

// TestExecutorCacheInvalidatedBySameCountEdit is the regression test for
// the cache-staleness hazard: a dependency edit that keeps the node
// count unchanged must still invalidate the cached compiled form.
func TestExecutorCacheInvalidatedBySameCountEdit(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	sp, _, _ := testSpecs(4)
	v := mustValue(t)(g.GEMVFromSpec("mv", sp))
	if _, err := g.AllReduce("ar", v); err != nil {
		t.Fatal(err)
	}
	probe := g.PerRank("probe", func(p *sim.Proc, rank, pe int) {})

	var x Executor
	drive(pl, func(p *sim.Proc) {
		if rep := x.Execute(p, g, Compiled); len(rep.Select.Decisions) != 1 {
			t.Errorf("first run: %+v", rep.Select)
		}
		// Same node count, different graph: the probe now reads the GEMV
		// partial outputs, so the pair must no longer fuse.
		g.AddDep(probe.Producer(), v)
		if rep := x.Execute(p, g, Compiled); len(rep.Select.Decisions) != 0 {
			t.Errorf("stale cache served after same-count dependency edit: %+v", rep.Select)
		}
	})
}

func TestExecutorPartitionCacheKeysOnChunksAndGen(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	sp, _, _ := testSpecs(4)
	v := mustValue(t)(g.GEMVFromSpec("mv", sp))
	if _, err := g.AllReduce("ar", v); err != nil {
		t.Fatal(err)
	}
	var x Executor
	drive(pl, func(p *sim.Proc) {
		x.Chunks = 2
		first := x.Execute(p, g, Pipelined)
		if got := first.Select.Decisions[0].Chunks; got != 2 {
			t.Errorf("first run chunks = %d", got)
		}
		x.Chunks = 4
		second := x.Execute(p, g, Pipelined)
		if got := second.Select.Decisions[0].Chunks; got != 4 {
			t.Errorf("stale partition served after Chunks changed: %d", got)
		}
		// A graph edit invalidates too.
		g.PerRank("tail", func(p *sim.Proc, rank, pe int) {})
		third := x.Execute(p, g, Pipelined)
		if len(third.Nodes) != 9 { // 4 chunk pairs + tail
			t.Errorf("stale partition served after graph grew: %d nodes", len(third.Nodes))
		}
	})
}

func TestAddDepValidation(t *testing.T) {
	pl, w := testWorld(t, 1, 2)
	g := New(w, allPEs(pl), core.DefaultConfig())
	a := g.PerRank("a", func(p *sim.Proc, rank, pe int) {})
	b := g.PerRank("b", func(p *sim.Proc, rank, pe int) {})
	gen := g.Gen()
	g.AddDep(b.Producer(), a)
	if g.Gen() <= gen {
		t.Error("AddDep must bump the mutation generation")
	}
	if len(b.Producer().Inputs()) != 1 {
		t.Error("dependency not recorded")
	}
	// Backward edges (cycles) are rejected.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddDep creating a cycle must panic")
			}
		}()
		g.AddDep(a.Producer(), b)
	}()
	// Cross-graph nodes are rejected.
	g2 := New(w, allPEs(pl), core.DefaultConfig())
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddDep on a foreign node must panic")
			}
		}()
		g2.AddDep(a.Producer(), b)
	}()
}

func TestStackChainsLayers(t *testing.T) {
	pl, w := testWorld(t, 1, 2)
	g := New(w, allPEs(pl), core.DefaultConfig())
	var order []int
	out, err := Stack(g, 3, func(l int, prev Value) (Value, error) {
		if l == 0 && prev.Producer() != nil {
			t.Error("layer 0 must receive the zero Value")
		}
		if l > 0 && prev.Producer() == nil {
			t.Error("later layers must receive the previous output")
		}
		return g.PerRank(fmt.Sprintf("layer%d", l), func(p *sim.Proc, rank, pe int) {
			if rank == 0 {
				order = append(order, l)
			}
			p.Sleep(10)
		}, prev), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Producer().Name() != "layer2" {
		t.Errorf("stack output = %q", out.Producer().Name())
	}
	drive(pl, func(p *sim.Proc) { Run(p, g, Eager) })
	for i, l := range order {
		if l != i {
			t.Fatalf("layer order %v", order)
		}
	}
	if _, err := Stack(g, 0, nil); err == nil {
		t.Error("zero-layer stack must error")
	}
	if _, err := Stack(g, 2, func(l int, prev Value) (Value, error) {
		return Value{}, fmt.Errorf("boom")
	}); err == nil || !strings.Contains(err.Error(), "layer 0") {
		t.Errorf("layer error not propagated: %v", err)
	}
}

// TestReportAccessors covers the Report helpers the experiments consume.
func TestReportAccessors(t *testing.T) {
	rep := &Report{
		Start: 100, End: 400,
		Nodes: []NodeReport{
			{Name: "a", Op: "gemv", Kind: KindCompute, Start: 100, End: 200},
			{Name: "b", Op: "fused::gemv_allreduce", Kind: KindFused, Start: 200, End: 400, RemotePuts: 3, RemoteBytes: 1024},
		},
	}
	if n := rep.Node("b"); n == nil || n.Duration() != 200 {
		t.Errorf("Node(b) = %+v", rep.Node("b"))
	}
	if rep.Node("missing") != nil {
		t.Error("missing node must return nil")
	}
	if got := rep.RemotePuts(); got != 3 {
		t.Errorf("RemotePuts = %d", got)
	}
	if got := rep.RemoteBytes(); got != 1024 {
		t.Errorf("RemoteBytes = %g", got)
	}
	if (&Report{}).Duration() != 0 {
		t.Error("empty report duration")
	}
	comp, comm := (&Report{}).StreamOccupancy()
	if comp != 0 || comm != 0 {
		t.Error("non-stream-aware report must report zero occupancy")
	}
}

// TestExecutorDisconnectedComponents verifies graphs whose nodes form
// several independent components run every component and report every
// node, in all five modes.
func TestExecutorDisconnectedComponents(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	// Component 1: a fusible (and chunkable) pair.
	sp, _, _ := testSpecs(4)
	v := mustValue(t)(g.GEMVFromSpec("mv", sp))
	if _, err := g.AllReduce("ar", v); err != nil {
		t.Fatal(err)
	}
	// Component 2: an isolated per-rank chain.
	a := g.PerRank("a", func(p *sim.Proc, rank, pe int) { p.Sleep(50) })
	g.PerRank("b", func(p *sim.Proc, rank, pe int) { p.Sleep(50) }, a)
	// Component 3: a single disconnected collective.
	grads := w.Malloc(128)
	g.AllReduceSymm("grads", grads, 0, 128)

	for _, mode := range []Mode{Eager, Compiled, Pipelined, Wavefront, Auto} {
		var rep *Report
		drive(pl, func(p *sim.Proc) { rep = Run(p, g, mode) })
		for _, nr := range rep.Nodes {
			if nr.End < nr.Start {
				t.Errorf("%s node %q has End < Start", mode, nr.Name)
			}
		}
		for _, name := range []string{"a", "b", "grads"} {
			if rep.Node(name) == nil {
				t.Errorf("%s: node %q missing from report", mode, name)
			}
		}
		if rep.Node("b").Start < rep.Node("a").End {
			t.Errorf("%s: chained component ran out of order", mode)
		}
	}
}
