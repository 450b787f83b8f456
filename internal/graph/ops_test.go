package graph

import (
	"testing"

	"fusedcc/internal/core"
)

// TestPairOpNamesAndKinds pins the operator name and kind of every pair
// form graph construction and lowering emit — 3 patterns x {compute,
// collective, fused, compute[c/n], collective[c/n]} — because those
// names feed fingerprints, NodeReport.Op, traces, and example output.
// Whole halves and fused nodes must not mark a graph as lowered; chunk
// halves must.
func TestPairOpNamesAndKinds(t *testing.T) {
	pl, w := testWorld(t, 1, 2)
	g := New(w, allPEs(pl), core.DefaultConfig())
	buildTriple(t, g, 2)
	cg, _ := Compile(g)
	pg, _ := Partition(g, 2)
	cases := []struct {
		g       *Graph
		node    string
		op      string
		kind    NodeKind
		lowered bool
	}{
		{g, "mv", "gemv", KindCompute, false},
		{g, "ar", "all_reduce", KindCollective, false},
		{cg, "mv+ar", "fused::gemv_allreduce", KindFused, false},
		{pg, "mv#1", "gemv[1/2]", KindCompute, true},
		{pg, "ar#1", "all_reduce[1/2]", KindCollective, true},

		{g, "pool", "embedding_bag", KindCompute, false},
		{g, "emb_a2a", "all_to_all", KindCollective, false},
		{cg, "pool+emb_a2a", "fused::embedding_all2all", KindFused, false},
		{pg, "pool#0", "embedding_bag[0/2]", KindCompute, true},
		{pg, "emb_a2a#0", "all_to_all[0/2]", KindCollective, true},

		{g, "mm", "matmul", KindCompute, false},
		{g, "combine", "all_to_all", KindCollective, false},
		{cg, "mm+combine", "fused::gemm_all2all", KindFused, false},
		{pg, "mm#1", "matmul[1/2]", KindCompute, true},
		{pg, "combine#1", "all_to_all[1/2]", KindCollective, true},
	}
	for _, tc := range cases {
		n := tc.g.Node(tc.node)
		if n == nil {
			t.Errorf("node %q missing", tc.node)
			continue
		}
		if got := n.Op().OpName(); got != tc.op {
			t.Errorf("%s: OpName %q, want %q", tc.node, got, tc.op)
		}
		if got := n.Op().Kind(); got != tc.kind {
			t.Errorf("%s: Kind %v, want %v", tc.node, got, tc.kind)
		}
		single := &Graph{nodes: []*Node{n}}
		if got := lowered(single); got != tc.lowered {
			t.Errorf("%s: lowered %t, want %t", tc.node, got, tc.lowered)
		}
	}
}
