package graph

import (
	"testing"

	"fusedcc/internal/core"
	"fusedcc/internal/sim"
)

// twoPairChain builds two adjacent GEMM + All-to-All pairs — pair B's
// MatMul consumes pair A's combine output — the minimal graph with a
// provable cross-pair chunk dependency (Rows kind on both sides of the
// join).
func twoPairChain(t *testing.T, g *Graph, tokens, n, kd, tileM int) (aOut, bOut Value) {
	t.Helper()
	a := mustValue(t)(g.MatMulFromSpec("mmA", GEMMSpec{Tokens: tokens, N: n, K: kd, TileM: tileM, TileN: n, Seed: 11}))
	aOut = mustValue(t)(g.AllToAll("a2aA", a))
	b := mustValue(t)(g.MatMulFromSpec("mmB", GEMMSpec{Tokens: tokens, N: n, K: kd, TileM: tileM, TileN: n, Seed: 13}, aOut))
	bOut = mustValue(t)(g.AllToAll("a2aB", b))
	return aOut, bOut
}

// TestPartitionWavefrontRewiresAdjacentPairs verifies the cross-pair
// rewiring at the dependency level: in a wavefront partition, chunk c
// of the consumer pair's compute depends on chunk c of the producer's
// collective (prefix coverage at equal K), where plain Partition makes
// every consumer chunk wait for the producer's final chunk.
func TestPartitionWavefrontRewiresAdjacentPairs(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	twoPairChain(t, g, 8, 16, 8, 4) // 2 row bands per block: K=2

	pg, rep := PartitionWavefront(g, 2)
	if len(rep.Decisions) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	for _, d := range rep.Decisions {
		if d.Choice != Wavefront || d.Chunks != 2 {
			t.Errorf("decision %+v, want wavefront@2", d)
		}
	}
	if len(rep.Joins) != 1 || rep.Joins[0].Producer != "a2aA" || rep.Joins[0].Consumer != "mmB" {
		t.Fatalf("joins = %+v, want a2aA -> mmB", rep.Joins)
	}
	depNames := func(n *Node) map[string]bool {
		names := map[string]bool{}
		for _, in := range n.Inputs() {
			names[in.Name()] = true
		}
		return names
	}
	b0 := depNames(pg.Node("mmB#0"))
	if !b0["a2aA#0"] || b0["a2aA#1"] {
		t.Errorf("mmB#0 deps = %v, want chunk-granular edge to a2aA#0 only", b0)
	}
	b1 := depNames(pg.Node("mmB#1"))
	if !b1["a2aA#1"] || !b1["mmB#0"] {
		t.Errorf("mmB#1 deps = %v, want a2aA#1 and the chain edge", b1)
	}

	// Plain Partition keeps the full-tensor join: both consumer chunks
	// wait for the producer's final collective chunk.
	ppg, prep := Partition(g, 2)
	if len(prep.Joins) != 0 {
		t.Fatalf("plain partition rewired joins: %+v", prep.Joins)
	}
	pb0 := depNames(ppg.Node("mmB#0"))
	if !pb0["a2aA#1"] {
		t.Errorf("plain partition mmB#0 deps = %v, want the final producer chunk", pb0)
	}
}

// TestWavefrontBitExactOnAdjacentPairs verifies wavefront execution of
// the two-pair chain is bit-exact with eager, and that the wavefront
// actually overlaps across the pair boundary (consumer chunk 0 runs
// before the producer chain drains).
func TestWavefrontBitExactOnAdjacentPairs(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	aOut, bOut := twoPairChain(t, g, 8, 16, 8, 2) // 4 row bands: K=4

	var want [][]float32
	var rep *Report
	drive(pl, func(p *sim.Proc) {
		Run(p, g, Eager)
		for _, v := range []Value{aOut, bOut} {
			want = append(want, append([]float32(nil), v.Symm().On(0).Data()...))
		}
		x := Executor{Chunks: 4}
		rep = x.Execute(p, g, Wavefront)
	})
	for i, v := range []Value{aOut, bOut} {
		got := v.Symm().On(0).Data()
		for j := range want[i] {
			if got[j] != want[i][j] {
				t.Fatalf("value %d elem %d: wavefront %g != eager %g", i, j, got[j], want[i][j])
			}
		}
	}
	if len(rep.Select.Joins) != 1 {
		t.Fatalf("joins = %+v", rep.Select.Joins)
	}
	mmB0, drain := rep.Node("mmB#0"), rep.Node("a2aA#3")
	if mmB0 == nil || drain == nil {
		t.Fatalf("missing chunk nodes: %+v", rep.Nodes)
	}
	if mmB0.Start >= drain.End {
		t.Errorf("consumer chunk 0 started %v after the producer chain drained %v — no cross-pair overlap",
			mmB0.Start, drain.End)
	}
}

// TestLoweringPassesRefuseLoweredGraphs is the pass-idempotence
// regression: running Partition, PartitionWavefront, Select, or Compile
// over a graph that already contains chunk sub-nodes must be a
// deterministic no-op (same graph back, Lowered flagged) — never a
// re-chunking of chunk nodes.
func TestLoweringPassesRefuseLoweredGraphs(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	sp, _, _ := testSpecs(4)
	v := mustValue(t)(g.GEMVFromSpec("mv", sp))
	if _, err := g.AllReduce("ar", v); err != nil {
		t.Fatal(err)
	}

	pg, first := Partition(g, 2)
	if first.Lowered || len(first.Decisions) != 1 {
		t.Fatalf("first partition = %+v", first)
	}
	if rg, rep := Partition(pg, 4); !rep.Lowered || rg != pg || len(rep.Decisions) != 0 {
		t.Errorf("re-partition: lowered=%v same=%v decisions=%d", rep.Lowered, rg == pg, len(rep.Decisions))
	}
	if rg, rep := PartitionWavefront(pg, 4); !rep.Lowered || rg != pg {
		t.Errorf("wavefront re-partition: lowered=%v same=%v", rep.Lowered, rg == pg)
	}
	if rg, rep := Select(pg); !rep.Lowered || rg != pg || len(rep.Decisions) != 0 {
		t.Errorf("select on lowered: lowered=%v same=%v decisions=%d", rep.Lowered, rg == pg, len(rep.Decisions))
	}
	if rg, rep := Compile(pg); !rep.Lowered || rg != pg || len(rep.Decisions) != 0 {
		t.Errorf("compile on lowered: lowered=%v same=%v decisions=%d", rep.Lowered, rg == pg, len(rep.Decisions))
	}
	// The reports say so explicitly.
	if s := first.String(); s == "" {
		t.Error("empty partition report")
	}
	_, rep := Partition(pg, 4)
	if s := rep.String(); s != "plan: input graph already lowered (chunk nodes present); no-op\n" {
		t.Errorf("lowered report rendering: %q", s)
	}
	// A fused-only graph (no chunk nodes) still passes through the
	// passes as a plain no-op copy, not a refusal.
	cg, crep := Compile(g)
	if crep.Lowered || len(crep.Decisions) != 1 {
		t.Fatalf("compile = %+v", crep)
	}
	if _, rep := Partition(cg, 2); rep.Lowered {
		t.Error("fused-only graph wrongly flagged as lowered")
	}
}

// TestWavefrontEstimateAccuracy pins the wavefront pipeline recurrence
// to simulation within the same 1.2x envelope the operator Estimate*
// tests use: the predicted chain makespan at K must track the measured
// wavefront execution of the same chain.
func TestWavefrontEstimateAccuracy(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	twoPairChain(t, g, 64, 256, 128, 8) // 8 row bands per block

	match := pairMatches(g)
	chains := wfChains(g, wfSegments(g, match, DegradeContext{}))
	if len(chains) != 1 || len(chains[0]) != 2 {
		t.Fatalf("chains = %d (want one two-segment chain)", len(chains))
	}
	const k = 4
	pred := wavefrontCost(chains[0], k)
	if pred <= 0 {
		t.Fatal("zero wavefront prediction")
	}

	var rep *Report
	drive(pl, func(p *sim.Proc) {
		x := Executor{Chunks: k}
		rep = x.Execute(p, g, Wavefront)
	})
	if len(rep.Select.Joins) != 1 {
		t.Fatalf("joins = %+v", rep.Select.Joins)
	}
	ratio := float64(pred) / float64(rep.Duration())
	if ratio < 1/1.2 || ratio > 1.2 {
		t.Errorf("wavefront recurrence predicted %v vs simulated %v (ratio %.2fx, want within 1.2x)",
			pred, rep.Duration(), ratio)
	}
}
