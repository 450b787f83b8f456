// Package graph is the typed computation-graph IR and fusion compiler
// of the reproduction — the §III-D integration story done properly. A
// Graph holds typed compute nodes (EmbeddingBag pooling, GEMV, MatMul,
// custom per-rank kernels) and collective nodes (AllToAll, AllReduce,
// the embedding-gradient exchange) over distributed tensor values;
// Compile pattern-matches adjacent compute→collective pairs and
// rewrites them to the fused computation-collective operators of
// internal/core (GC3/CoCoNet-style: one IR for compute and
// communication so a rewrite pass — not the user — introduces fusion);
// an Executor runs the same graph in Eager (bulk-synchronous) or
// Compiled (fused) mode with bit-exact functional results and a
// per-node timing/traffic report.
//
// Compute and collective nodes that form a fusable pair share one
// backing core operator: the compute node's eager body stages its
// output exactly where the operator's baseline path would (partial
// outputs, bucketized send buffers), the collective node's eager body
// is the library collective over that staging, and the fused node the
// compiler substitutes is the operator's persistent-kernel path. That
// guarantees the three execution forms see identical operands and
// produce identical functional results.
package graph

import (
	"fmt"

	"fusedcc/internal/collectives"
	"fusedcc/internal/core"
	"fusedcc/internal/kernels"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

// NodeKind classifies a node for reports and the compiler.
type NodeKind int

const (
	// KindCompute is a computation node (pooling, GEMV, MatMul, custom
	// per-rank kernels).
	KindCompute NodeKind = iota
	// KindCollective is a communication node (AllToAll, AllReduce,
	// gradient exchange).
	KindCollective
	// KindFused is a fused computation-collective node produced by the
	// compiler (or built explicitly).
	KindFused
)

func (k NodeKind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindCollective:
		return "collective"
	case KindFused:
		return "fused"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Op is one executable graph operation. Implementations live in ops.go;
// user code obtains them through the Graph builder methods.
type Op interface {
	// OpName is the stable operator name ("gemv", "all_reduce",
	// "fused::gemv_allreduce", ...), the graph analogue of the torch
	// registry keys.
	OpName() string
	// Kind classifies the op.
	Kind() NodeKind
	// Run executes the op on the coordinating process.
	Run(p *sim.Proc) core.Report
}

// Node is one vertex of a Graph: an Op plus its dependencies.
type Node struct {
	id   int
	name string
	op   Op
	in   []*Node
	g    *Graph // owning graph; guards against cross-graph values
}

// Name returns the node's user-visible name.
func (n *Node) Name() string { return n.name }

// Op returns the node's operation.
func (n *Node) Op() Op { return n.op }

// Inputs returns the dependency nodes.
func (n *Node) Inputs() []*Node { return append([]*Node(nil), n.in...) }

// Value is an SSA-style edge: the output of one node, consumable as a
// dependency by later nodes. Typed payloads (the pair op binding the
// backing core operator and its pattern) let AllReduce, AllToAll, and
// the fusion pass check compatibility statically instead of via
// stringly-typed attribute maps.
type Value struct {
	producer *Node
	payload  any // *pairOp | *core.EmbeddingGradExchange | *shmem.Symm | nil
}

// Producer returns the node that computes this value (nil for the zero
// Value).
func (v Value) Producer() *Node { return v.producer }

// Symm returns the symmetric buffer backing the value, where one exists
// (pair-operator outputs, generic collective payloads); nil for opaque
// per-rank values. For pair operators the buffer is the operator's
// output; its contents are final once the pair's collective (or fused)
// node has run.
func (v Value) Symm() *shmem.Symm {
	switch pl := v.payload.(type) {
	case *pairOp:
		return pl.pair.Output()
	case *core.EmbeddingGradExchange:
		return pl.GradIn
	case *shmem.Symm:
		return pl
	}
	return nil
}

// Graph is a typed computation graph bound to one communication world.
// Build nodes with the builder methods, then run it through an Executor
// (eagerly, or compiled via Compile).
type Graph struct {
	world *shmem.World
	pes   []int
	cfg   core.Config
	nodes []*Node
	// gen counts mutations (node additions, dependency edits). Executor
	// caches key on it, so any edit — including ones that keep the node
	// count unchanged — invalidates stale compiled or partitioned forms.
	gen int
}

// New creates an empty graph over the world's PEs with the given
// operator configuration (used when materializing specs and by the
// fused operators the compiler substitutes).
func New(world *shmem.World, pes []int, cfg core.Config) *Graph {
	return &Graph{world: world, pes: append([]int(nil), pes...), cfg: cfg}
}

// World returns the bound communication world.
func (g *Graph) World() *shmem.World { return g.world }

// PEs returns the participating GPU ids.
func (g *Graph) PEs() []int { return append([]int(nil), g.pes...) }

// Config returns the operator configuration the graph was built with.
func (g *Graph) Config() core.Config { return g.cfg }

// Nodes returns the graph's nodes in insertion (topological) order.
func (g *Graph) Nodes() []*Node { return append([]*Node(nil), g.nodes...) }

// Node returns the first node with the given name, or nil.
func (g *Graph) Node(name string) *Node {
	for _, n := range g.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// Gen returns the graph's mutation generation: it increases on every
// node addition or dependency edit, and executor caches key on it.
func (g *Graph) Gen() int { return g.gen }

// AddDep appends extra dependencies to an existing node — control edges
// for sequencing decided after construction (making a stage wait for a
// side branch, pinning a collective behind a barrier). Cross-graph
// values are rejected like in the builders. The edit bumps the mutation
// generation, so cached compiled or partitioned forms are rebuilt.
func (g *Graph) AddDep(n *Node, deps ...Value) {
	if n == nil || n.g != g {
		panic("graph: AddDep on a node from a different graph")
	}
	g.gen++
	for _, d := range deps {
		if d.producer == nil {
			continue
		}
		if d.producer.g != g {
			panic(fmt.Sprintf("graph: node %q depends on value of %q from a different graph", n.name, d.producer.name))
		}
		if d.producer.id >= n.id {
			panic(fmt.Sprintf("graph: AddDep would make %q depend on later node %q", n.name, d.producer.name))
		}
		n.in = append(n.in, d.producer)
	}
}

// Stack chains layers: build(l, prev) appends layer l's nodes to the
// graph and returns the layer's output value; prev is the zero Value for
// layer 0 and the previous layer's output afterwards. It returns the
// last layer's output — the one-line way multi-layer model stacks
// (transformer decoders, stacked MoE) become single graphs that the
// executor can pipeline across layers.
func Stack(g *Graph, layers int, build func(layer int, prev Value) (Value, error)) (Value, error) {
	if layers <= 0 {
		return Value{}, fmt.Errorf("graph: Stack of %d layers", layers)
	}
	var prev Value
	for l := 0; l < layers; l++ {
		v, err := build(l, prev)
		if err != nil {
			return Value{}, fmt.Errorf("graph: layer %d: %w", l, err)
		}
		prev = v
	}
	return prev, nil
}

// add appends a node built from op and the producers of deps. A
// dependency value produced by a different graph is a programming
// error: the executor could never schedule it, so it is rejected
// immediately with a clear panic rather than corrupting a later run.
func (g *Graph) add(name string, op Op, deps ...Value) *Node {
	g.gen++
	n := &Node{id: len(g.nodes), name: name, op: op, g: g}
	for _, d := range deps {
		if d.producer == nil {
			continue
		}
		if d.producer.g != g {
			panic(fmt.Sprintf("graph: node %q depends on value of %q from a different graph", name, d.producer.name))
		}
		n.in = append(n.in, d.producer)
	}
	g.nodes = append(g.nodes, n)
	return n
}

// consumers returns how many nodes consume n as an input.
func (g *Graph) consumers(n *Node) int {
	c := 0
	for _, m := range g.nodes {
		for _, in := range m.in {
			if in == n {
				c++
			}
		}
	}
	return c
}

// ---- compute node builders ----

// EmbeddingBag adds an embedding-pooling compute node backed by an
// existing embedding + All-to-All pair operator: eagerly it runs the
// per-table pooling kernels into the operator's bucketized send buffer.
// The returned value is the pooled-per-rank tensor, the input of an
// AllToAll node.
func (g *Graph) EmbeddingBag(name string, op *core.EmbeddingAllToAll, deps ...Value) Value {
	return g.addPair(name, &pairOp{pair: op, pattern: PatternEmbeddingAllToAll, phase: KindCompute}, deps)
}

// NewEmbeddingBag materializes an embedding + All-to-All pair operator
// from per-rank table sets and adds its pooling node.
func (g *Graph) NewEmbeddingBag(name string, sets []*kernels.EmbeddingSet, globalBatch, sliceRows int, deps ...Value) (Value, error) {
	op, err := core.NewEmbeddingAllToAll(g.world, g.pes, sets, globalBatch, sliceRows, g.cfg)
	if err != nil {
		return Value{}, err
	}
	return g.EmbeddingBag(name, op, deps...), nil
}

// GEMV adds a matrix-vector compute node backed by an existing
// GEMV + AllReduce pair operator: eagerly it runs the conventional GEMV
// kernels, staging each rank's partial output. The returned value is
// the partial-output tensor, the input of an AllReduce node.
func (g *Graph) GEMV(name string, op *core.GEMVAllReduce, deps ...Value) Value {
	return g.addPair(name, &pairOp{pair: op, pattern: PatternGEMVAllReduce, phase: KindCompute}, deps)
}

// NewGEMV materializes a GEMV + AllReduce pair operator from per-rank
// kernels and adds its compute node.
func (g *Graph) NewGEMV(name string, gemvs []*kernels.GEMV, deps ...Value) (Value, error) {
	op, err := core.NewGEMVAllReduce(g.world, g.pes, gemvs, g.cfg)
	if err != nil {
		return Value{}, err
	}
	return g.GEMV(name, op, deps...), nil
}

// MatMul adds a tiled-matmul compute node backed by an existing
// GEMM + All-to-All pair operator: eagerly it runs the stock tiled GEMM
// kernels into the operator's send staging. The returned value is the
// per-rank output tensor grouped by destination, the input of an
// AllToAll node.
func (g *Graph) MatMul(name string, op *core.GEMMAllToAll, deps ...Value) Value {
	return g.addPair(name, &pairOp{pair: op, pattern: PatternGEMMAllToAll, phase: KindCompute}, deps)
}

// addPair adds a pair-operator half; its value carries the op, so
// AllReduce and AllToAll know which pair and pattern they complete.
func (g *Graph) addPair(name string, op *pairOp, deps []Value) Value {
	return Value{producer: g.add(name, op, deps...), payload: op}
}

// NewMatMul materializes a GEMM + All-to-All pair operator from
// per-rank kernels and adds its compute node.
func (g *Graph) NewMatMul(name string, gemms []*kernels.GEMM, deps ...Value) (Value, error) {
	op, err := core.NewGEMMAllToAll(g.world, g.pes, gemms, g.cfg)
	if err != nil {
		return Value{}, err
	}
	return g.MatMul(name, op, deps...), nil
}

// PerRank adds an opaque compute node that runs fn concurrently on
// every rank — the escape hatch for model stages the IR has no first-
// class op for (MLP stacks, activations, interaction ops, gating). The
// node is never fused; it exists so whole case-study models are single
// graphs and the executor's dataflow scheduling overlaps independent
// stages.
func (g *Graph) PerRank(name string, fn func(p *sim.Proc, rank, pe int), deps ...Value) Value {
	n := g.add(name, &perRankOp{g: g, fn: fn}, deps...)
	return Value{producer: n}
}

// RowsSpec describes a rowwise per-rank compute node: work that
// decomposes over Units contiguous rows of a declared dimension, with
// row r of the output depending only on row r of the node's inputs
// (fractionally, when the producer's row count differs — e.g. TopK
// token fan-out). Declaring a node rowwise is the builder's contract
// that lets the wavefront partition split it into chunk sub-nodes and
// flow chunk-granular dependencies through it across layer boundaries;
// nodes without a provable rowwise structure must use PerRank instead.
type RowsSpec struct {
	// Kind names the dimension (RangeRows for token/batch rows).
	Kind core.RangeKind
	// Units is the row count of the dimension on this node.
	Units int
	// Run executes rows [lo,hi) on one rank. The full node runs
	// Run(0, Units); chunk sub-nodes run disjoint covering ranges, so
	// the body must perform exactly the rows asked for (functionally
	// and in simulated cost) for chunked execution to stay bit-exact.
	Run func(p *sim.Proc, rank, pe, lo, hi int)
	// Estimate predicts the duration of Run over rows [lo,hi) for the
	// analytic cost model (launch overheads included). Optional: when
	// nil, the select pass cannot price wavefront schedules through
	// this node and will leave its chain un-wavefronted.
	Estimate func(lo, hi int) sim.Duration
}

// PerRankRows adds a rowwise per-rank compute node (see RowsSpec). An
// invalid spec (no rows, nil body) is a programming error and panics
// like other builder misuse.
func (g *Graph) PerRankRows(name string, spec RowsSpec, deps ...Value) Value {
	if spec.Units <= 0 || spec.Run == nil {
		panic(fmt.Sprintf("graph: PerRankRows %q needs Units > 0 and a Run body", name))
	}
	n := g.add(name, &rowsOp{g: g, spec: spec}, deps...)
	return Value{producer: n}
}

// ---- collective node builders ----

// AllReduce adds the collective node completing a GEMV pair: eagerly it
// runs the library AllReduce over the staged partial outputs. The input
// must be the value of a GEMV node.
func (g *Graph) AllReduce(name string, in Value, deps ...Value) (Value, error) {
	op, ok := in.payload.(*pairOp)
	if !ok || op.pattern != PatternGEMVAllReduce {
		return Value{}, fmt.Errorf("graph: AllReduce %q input is %s, want a GEMV partial output (use AllReduceSymm for generic payloads)", name, in.describe())
	}
	return g.addPair(name, op.form(KindCollective, 0, 0), append([]Value{in}, deps...)), nil
}

// AllToAll adds the collective node completing an embedding or matmul
// pair: eagerly it runs the library All-to-All over the staged send
// buffer (plus, for embeddings, the shuffle into the interleaved output
// layout). The input must be the value of an EmbeddingBag or MatMul
// node.
func (g *Graph) AllToAll(name string, in Value, deps ...Value) (Value, error) {
	op, ok := in.payload.(*pairOp)
	if !ok || op.pattern == PatternGEMVAllReduce {
		return Value{}, fmt.Errorf("graph: AllToAll %q input is %s, want an EmbeddingBag or MatMul output (use AllToAllSymm for generic payloads)", name, in.describe())
	}
	return g.addPair(name, op.form(KindCollective, 0, 0), append([]Value{in}, deps...)), nil
}

// describe names a value's payload for AllReduce and AllToAll input
// errors.
func (v Value) describe() string {
	if op, ok := v.payload.(*pairOp); ok {
		return "a " + op.pattern.String() + " value"
	}
	return fmt.Sprintf("%T", v.payload)
}

// GradExchange adds the embedding-gradient exchange collective: eagerly
// it runs the bulk-synchronous pack + All-to-All + scatter-add path;
// the compiler rewrites it to the fused exchange that overlaps the
// All-to-All with the gradient apply.
func (g *Graph) GradExchange(name string, gx *core.EmbeddingGradExchange, deps ...Value) Value {
	n := g.add(name, &gradExchangeOp{op: gx, fused: false}, deps...)
	return Value{producer: n, payload: gx}
}

// AllReduceSymm adds a generic library AllReduce over elems float32 of
// an arbitrary symmetric buffer (e.g. data-parallel gradients), using
// the graph's configured collective algorithm. Never fused.
func (g *Graph) AllReduceSymm(name string, data *shmem.Symm, off, elems int, deps ...Value) Value {
	return g.AllReduceSymmAlgo(name, data, off, elems, g.cfg.Collective, deps...)
}

// AllReduceSymmAlgo is AllReduceSymm with an explicit collective
// algorithm, for stages modeled after a fixed library schedule (e.g.
// the ring AllReduce production data-parallel training uses).
func (g *Graph) AllReduceSymmAlgo(name string, data *shmem.Symm, off, elems int, algo collectives.Algo, deps ...Value) Value {
	n := g.add(name, &symmCollectiveOp{g: g, name: "all_reduce", data: data, off: off, elems: elems, algo: algo}, deps...)
	return Value{producer: n, payload: data}
}

// AllToAllSymm adds a generic library All-to-All moving cnt float32 per
// rank pair from send to recv (e.g. the MoE dispatch), using the
// graph's configured collective algorithm. Never fused.
func (g *Graph) AllToAllSymm(name string, send, recv *shmem.Symm, cnt int, deps ...Value) Value {
	n := g.add(name, &symmCollectiveOp{g: g, name: "all_to_all", data: send, recv: recv, elems: cnt, algo: g.cfg.Collective}, deps...)
	return Value{producer: n, payload: recv}
}

// AllToAllSymmRows adds a generic library All-to-All whose per-rank-
// pair block is declared row-structured: rows rows of elemsPerRow
// float32 each (rows*elemsPerRow per rank pair, like AllToAllSymm with
// cnt = rows*elemsPerRow). The declaration is the builder's contract
// that row band [lo,hi) of every block is independent of the other
// bands, so a wavefront partition may split the exchange into
// sub-block chunk chains (collectives.AllToAllSub) and flow
// chunk-granular dependencies through it. Never fused.
func (g *Graph) AllToAllSymmRows(name string, send, recv *shmem.Symm, rows, elemsPerRow int, deps ...Value) Value {
	if rows <= 0 || elemsPerRow <= 0 {
		panic(fmt.Sprintf("graph: AllToAllSymmRows %q needs rows > 0 and elemsPerRow > 0", name))
	}
	n := g.add(name, &symmA2ARowsOp{g: g, send: send, recv: recv, rows: rows, epr: elemsPerRow, algo: g.cfg.Collective}, deps...)
	return Value{producer: n, payload: recv}
}
