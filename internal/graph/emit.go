package graph

import (
	"fmt"

	"fusedcc/internal/core"
)

// The emitter is the mechanism every plan lowers through. It copies a
// source graph node by node, substituting each planned node with its
// execution form: a fused node (the paper's persistent kernels), K
// interleaved chunk chains (the CoCoNet/GC3-style software pipeline the
// fused operators compete against), or the node unchanged.
//
// Chunk ranges are first-class ACROSS segment boundaries: when the
// operators' chunk-range metadata and the builders' rowwise
// declarations prove that chunk c of a wavefront segment reads only an
// upstream prefix of chunks, the full-tensor join edge between adjacent
// chunk chains is replaced by chunk-granular edges — layer l+1's chunk
// c waits for layer l's chunk c, not for the whole layer-l output. A
// deep stack then executes as a wavefront instead of paying a full
// pipeline drain at every layer boundary.

// Join records one full-tensor join edge a wavefront lowering replaced
// by chunk-granular edges.
type Join struct {
	// Producer and Consumer name the original nodes at the join: the
	// upstream chunked segment's tail and the downstream segment's head.
	Producer, Consumer string
	// Chunks is the consumer segment's chunk count.
	Chunks int
}

// rowUnits returns the row granularity of a rowwise node — a rowwise
// per-rank node or a row-structured exchange; ok is false for every
// other op.
func rowUnits(op Op) (units int, ok bool) {
	switch o := op.(type) {
	case *rowsOp:
		return o.spec.Units, true
	case *symmA2ARowsOp:
		return o.rows, true
	}
	return 0, false
}

// lowered reports whether g already contains chunk sub-nodes from a
// lowering. Lowering such a graph again would re-chunk chunk nodes (or
// chunk half of a mixed-mode graph against the cost model's decisions),
// so every plan builder refuses it as a deterministic no-op instead.
func lowered(g *Graph) bool {
	for _, n := range g.nodes {
		if op, ok := n.op.(loweredOp); ok && op.chunked() {
			return true
		}
	}
	return false
}

// segChain records one emitted wavefront chunk chain: the per-chunk
// "ready" nodes downstream chunk edges may attach to, and the output
// range each chunk finalizes.
type segChain struct {
	k int
	// tails[c] is chunk c's final node (the collective chunk for pairs,
	// the chunk node itself for rowwise segments).
	tails []*Node
	// out returns the output range chunk c finalizes.
	out func(c int) core.ChunkRange
}

// chunkFor returns the tail of the minimal chunk whose output prefix
// covers the consumer range in (chunks are contiguous ascending, so the
// prefix through chunk c ends at out(c).Hi), or nil when the kinds do
// not match or no chunk covers it.
func (s *segChain) chunkFor(in core.ChunkRange) *Node {
	if in.Empty() {
		return nil
	}
	for c := 0; c < s.k; c++ {
		if s.out(c).CoversPrefix(in) {
			return s.tails[c]
		}
	}
	return nil
}

// emitter builds a lowering's output graph, tracking the mapping from
// source nodes to their substitutes so later nodes' dependencies
// resolve.
type emitter struct {
	out      *Graph
	replaced map[*Node]*Node
	// segs maps an original wavefront segment tail node (a pair's
	// collective, a rowwise node) to its emitted chunk chain — the
	// wavefront rewiring state. A plan registers exactly its wavefront
	// segments; per-pair pipelines are not registered, so their
	// consumers keep full-tensor join edges.
	segs  map[*Node]*segChain
	joins []Join
}

func newEmitter(g *Graph) *emitter {
	return &emitter{out: New(g.world, g.pes, g.cfg), replaced: map[*Node]*Node{}, segs: map[*Node]*segChain{}}
}

// emit appends a freshly built node to the output graph.
func (em *emitter) emit(n *Node) *Node {
	n.id, n.g = len(em.out.nodes), em.out
	em.out.nodes = append(em.out.nodes, n)
	em.out.gen++
	return n
}

// place emits source node n's substitute running op (n.op for an
// unchanged copy), dependencies remapped.
func (em *emitter) place(n *Node, op Op) *Node {
	cp := &Node{name: n.name, op: op}
	cp.in = mapInputs(n.in, em.replaced)
	em.emit(cp)
	em.replaced[n] = cp
	return cp
}

// fusePair replaces the (producer, collective) pair with one fused
// node inheriting both nodes' dependencies.
func (em *emitter) fusePair(producer, coll *Node) {
	fn := &Node{name: producer.name + "+" + coll.name, op: coll.op.(*pairOp).form(KindFused, 0, 0)}
	fn.in = mapInputs(append(append([]*Node{}, producer.in...), exclude(coll.in, producer)...), em.replaced)
	em.emit(fn)
	em.replaced[producer] = fn
	em.replaced[coll] = fn
}

// headDeps resolves the dependency set of one chunk of a segment head:
// a dependency on a registered upstream chunk chain becomes
// chunk-granular when this chunk's input range (in, inOK) is provably
// covered by an upstream chunk prefix; everything else resolves to the
// producer's full substitute. joined de-duplicates the join records per
// (upstream, segment) pair.
func (em *emitter) headDeps(origs []*Node, in core.ChunkRange, inOK bool, joined map[*Node]bool, consumer string, k int) []*Node {
	var out []*Node
	seen := map[*Node]bool{}
	for _, o := range origs {
		var dep *Node
		if inOK {
			if seg := em.segs[o]; seg != nil {
				if t := seg.chunkFor(in); t != nil {
					dep = t
					if !joined[o] {
						joined[o] = true
						em.joins = append(em.joins, Join{Producer: o.name, Consumer: consumer, Chunks: k})
					}
				}
			}
		}
		if dep == nil {
			m, ok := em.replaced[o]
			if !ok {
				panic(fmt.Sprintf("graph: input %q not part of the lowered graph", o.name))
			}
			dep = m
		}
		if !seen[dep] {
			seen[dep] = true
			out = append(out, dep)
		}
	}
	return out
}

// chunkChain replaces the (producer, collective) pair with k
// interleaved chunk chains
//
//	compute#0 → collective#0, compute#1 → collective#1, ...
//
// with dependency edges compute#c → compute#c+1 and collective#c →
// collective#c+1 modeling the per-stream program order, so chunk c's
// collective overlaps chunk c+1's compute. The compute chain inherits
// the compute node's dependencies — chunk-granularly where a registered
// upstream wavefront chain provably aligns, full-tensor otherwise; the
// collective chain inherits the collective's remaining dependencies
// plus its own chunk's compute node. Downstream consumers of the pair
// depend on the final chunks (unless themselves rewired).
func (em *emitter) chunkChain(producer, coll *Node, k int) *segChain {
	op := coll.op.(*pairOp)
	collDeps := mapInputs(exclude(coll.in, producer), em.replaced)
	seg := &segChain{k: k, tails: make([]*Node, k), out: func(c int) core.ChunkRange { return op.pair.ChunkOut(c, k) }}
	joined := map[*Node]bool{}
	var prevComp, prevColl *Node
	for c := 0; c < k; c++ {
		in, inOK := op.pair.ChunkIn(c, k)
		comp := &Node{name: fmt.Sprintf("%s#%d", producer.name, c), op: op.form(KindCompute, c, k)}
		comp.in = em.headDeps(producer.in, in, inOK, joined, producer.name, k)
		if prevComp != nil {
			comp.in = append(comp.in, prevComp)
		}
		em.emit(comp)
		cl := &Node{name: fmt.Sprintf("%s#%d", coll.name, c), op: op.form(KindCollective, c, k)}
		cl.in = append(cl.in, comp)
		cl.in = append(cl.in, collDeps...)
		if prevColl != nil {
			cl.in = append(cl.in, prevColl)
		}
		em.emit(cl)
		seg.tails[c] = cl
		prevComp, prevColl = comp, cl
	}
	em.replaced[producer] = prevComp
	em.replaced[coll] = prevColl
	return seg
}

// rowSegment replaces a rowwise node (per-rank rows, row-structured
// exchange) with k chunk sub-nodes chained in program order, each
// reading — and finalizing — its own row band, with head dependencies
// resolved chunk-granularly like chunkChain. k is at most the node's
// row granularity.
func (em *emitter) rowSegment(n *Node, k int) *segChain {
	var (
		kind core.RangeKind
		mk   func(c int) Op
	)
	switch op := n.op.(type) {
	case *rowsOp:
		kind = op.spec.Kind
		mk = func(c int) Op { return &rowsChunkOp{op: op, c: c, n: k} }
	case *symmA2ARowsOp:
		kind = core.RangeRows
		mk = func(c int) Op { return &symmA2ARowsChunkOp{op: op, c: c, n: k} }
	default:
		panic("graph: rowSegment on a non-rowwise node") // unreachable: plans record rowwise nodes only
	}
	units, _ := rowUnits(n.op)
	span := func(c int) core.ChunkRange {
		lo, hi := core.ChunkSpan(c, k, units)
		return core.ChunkRange{Kind: kind, Lo: lo, Hi: hi, Units: units}
	}
	seg := &segChain{k: k, tails: make([]*Node, k), out: span}
	joined := map[*Node]bool{}
	var prev *Node
	for c := 0; c < k; c++ {
		node := &Node{name: fmt.Sprintf("%s#%d", n.name, c), op: mk(c)}
		node.in = em.headDeps(n.in, span(c), true, joined, n.name, k)
		if prev != nil {
			node.in = append(node.in, prev)
		}
		em.emit(node)
		seg.tails[c] = node
		prev = node
	}
	em.replaced[n] = prev
	return seg
}
