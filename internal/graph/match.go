package graph

import "fmt"

// Pattern identifies one compute→collective pairing the passes know.
type Pattern int

const (
	// PatternGEMVAllReduce pairs gemv → all_reduce; its fused form is the
	// GEMV + AllReduce persistent kernel (§III-B).
	PatternGEMVAllReduce Pattern = iota
	// PatternEmbeddingAllToAll pairs embedding_bag → all_to_all; its
	// fused form is the embedding + All-to-All persistent kernel
	// (§III-A).
	PatternEmbeddingAllToAll
	// PatternGEMMAllToAll pairs matmul → all_to_all; its fused form is
	// the Triton-built GEMM + All-to-All kernel (§III-B, §III-D).
	PatternGEMMAllToAll
	// PatternGradExchange is the bulk-synchronous embedding-gradient
	// exchange; its fused form is the overlapped exchange (Fig 15).
	PatternGradExchange
)

func (pt Pattern) String() string {
	switch pt {
	case PatternGEMVAllReduce:
		return "gemv+all_reduce"
	case PatternEmbeddingAllToAll:
		return "embedding_bag+all_to_all"
	case PatternGEMMAllToAll:
		return "matmul+all_to_all"
	case PatternGradExchange:
		return "embedding_grad_exchange"
	}
	return fmt.Sprintf("pattern(%d)", int(pt))
}

// pairMatches returns, for every fusable collective node, its producing
// compute node. A pair matches only when the collective directly
// consumes the compute node's value, both are bound to the same backing
// operator, and the compute node has no other consumer (rewriting it
// would hide the staged intermediate another node reads). Every plan
// builder starts from this one match set, so "what fuses", "what
// pipelines", and "what Auto prices" cannot drift apart.
func pairMatches(g *Graph) map[*Node]*Node {
	match := map[*Node]*Node{}
	for _, c := range g.nodes {
		coll := half(c.op, KindCollective)
		if coll == nil {
			continue
		}
		// The producing compute node: the input bound to the same pair.
		var producer *Node
		for _, in := range c.in {
			if comp := half(in.op, KindCompute); comp != nil && comp.pair == coll.pair {
				producer = in
				break
			}
		}
		if producer == nil || g.consumers(producer) != 1 {
			continue
		}
		match[c] = producer
	}
	return match
}

// exclude returns ins without node x.
func exclude(ins []*Node, x *Node) []*Node {
	var out []*Node
	for _, in := range ins {
		if in != x {
			out = append(out, in)
		}
	}
	return out
}

// mapInputs rewrites dependency pointers into the new graph, dropping
// duplicates introduced by pair merging.
func mapInputs(ins []*Node, replaced map[*Node]*Node) []*Node {
	var out []*Node
	seen := map[*Node]bool{}
	for _, in := range ins {
		m, ok := replaced[in]
		if !ok {
			// Input precedes this node in topological order, so it has
			// been emitted already; missing means a foreign node.
			panic(fmt.Sprintf("graph: input %q not part of the lowered graph", in.name))
		}
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}
