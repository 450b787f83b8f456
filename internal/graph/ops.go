package graph

import (
	"fmt"

	"fusedcc/internal/collectives"
	"fusedcc/internal/core"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

// ---- pair ops ----

// pairNames is the per-pattern operator-name table, indexed by the
// phase a pair op runs: the compute half, the collective half, and the
// fused node the compiler substitutes for both (the torch registry key).
var pairNames = [...][3]string{
	PatternGEMVAllReduce:     {KindCompute: "gemv", KindCollective: "all_reduce", KindFused: "fused::gemv_allreduce"},
	PatternEmbeddingAllToAll: {KindCompute: "embedding_bag", KindCollective: "all_to_all", KindFused: "fused::embedding_all2all"},
	PatternGEMMAllToAll:      {KindCompute: "matmul", KindCollective: "all_to_all", KindFused: "fused::gemm_all2all"},
}

// pairOp runs one form of a pair operator through the core.Pair
// surface: its compute or collective half, whole (n == 0) or chunk c of
// n of it (the sub-nodes a pipelined or wavefront lowering emits), or
// the fused persistent kernel. The compute half stages its output
// exactly where the collective half reads it, so every form performs
// the eager graph's work on the same buffers.
type pairOp struct {
	pair    core.Pair
	pattern Pattern
	phase   NodeKind
	c, n    int
}

func (o *pairOp) OpName() string {
	name := pairNames[o.pattern][o.phase]
	if o.n > 0 {
		return fmt.Sprintf("%s[%d/%d]", name, o.c, o.n)
	}
	return name
}

func (o *pairOp) Kind() NodeKind { return o.phase }
func (o *pairOp) chunked() bool  { return o.n > 0 }

func (o *pairOp) Run(p *sim.Proc) core.Report {
	c, n := o.c, o.n
	if n == 0 {
		n = 1 // the whole phase is its single chunk
	}
	switch o.phase {
	case KindCompute:
		return o.pair.RunComputeChunk(p, c, n)
	case KindCollective:
		return o.pair.RunCollectiveChunk(p, c, n)
	}
	return o.pair.RunFused(p)
}

// form returns the op running the same pair in another phase, chunk c
// of n (n == 0: the whole phase).
func (o *pairOp) form(phase NodeKind, c, n int) *pairOp {
	return &pairOp{pair: o.pair, pattern: o.pattern, phase: phase, c: c, n: n}
}

// half returns the pair op of a whole (unchunked) half of the given
// kind, or nil for any other op.
func half(op Op, kind NodeKind) *pairOp {
	if po, ok := op.(*pairOp); ok && po.phase == kind && po.n == 0 {
		return po
	}
	return nil
}

// ---- per-rank ops ----

type perRankOp struct {
	g  *Graph
	fn func(p *sim.Proc, rank, pe int)
}

func (o *perRankOp) OpName() string { return "per_rank" }
func (o *perRankOp) Kind() NodeKind { return KindCompute }

func (o *perRankOp) Run(p *sim.Proc) core.Report { return o.g.runRanks(p, o.fn) }

// runRanks runs fn concurrently on every rank of the graph, each rank
// credited its own end.
func (g *Graph) runRanks(p *sim.Proc, fn func(rp *sim.Proc, rank, pe int)) core.Report {
	rep := core.Report{Start: p.Now(), PEEnd: make([]sim.Time, len(g.pes))}
	p.ForkJoin(len(g.pes), "graph.rank", func(rp *sim.Proc, rank int) {
		fn(rp, rank, g.pes[rank])
		rep.PEEnd[rank] = rp.Now()
	})
	rep.End = p.Now()
	return rep
}

// ---- collective ops ----

type gradExchangeOp struct {
	op    *core.EmbeddingGradExchange
	fused bool
}

func (o *gradExchangeOp) OpName() string {
	if o.fused {
		return "fused::embedding_grad_exchange"
	}
	return "embedding_grad_exchange"
}

func (o *gradExchangeOp) Kind() NodeKind {
	if o.fused {
		return KindFused
	}
	return KindCollective
}

func (o *gradExchangeOp) Run(p *sim.Proc) core.Report {
	if o.fused {
		return o.op.RunFused(p)
	}
	return o.op.RunBaseline(p)
}

// symmCollectiveOp is a generic library collective over arbitrary
// symmetric buffers — real communication, but with no producing compute
// node in the IR to fuse with.
type symmCollectiveOp struct {
	g          *Graph
	name       string // "all_reduce" | "all_to_all"
	data, recv *shmem.Symm
	off, elems int
	algo       collectives.Algo
}

func (o *symmCollectiveOp) OpName() string { return o.name }
func (o *symmCollectiveOp) Kind() NodeKind { return KindCollective }

func (o *symmCollectiveOp) Run(p *sim.Proc) core.Report {
	start := p.Now()
	comm := collectives.New(o.g.world.Platform(), o.g.pes)
	if o.name == "all_to_all" {
		comm.AllToAll(p, o.data, o.recv, o.elems, o.algo)
	} else {
		comm.AllReduce(p, o.data, o.off, o.elems, o.algo)
	}
	return core.SpanReport(start, p.Now(), len(o.g.pes))
}

// ---- rowwise ops (wavefront-capable per-rank nodes and exchanges) ----

// rowsOp is a per-rank compute node whose work decomposes row-wise over
// a declared dimension: the body runs an arbitrary contiguous row range
// on every rank. Eagerly it runs the whole range in one node; a
// wavefront partition splits it into chunk sub-nodes aligned with
// adjacent chunked pairs, so chunk-granular dependencies flow through
// it across layer boundaries.
type rowsOp struct {
	g    *Graph
	spec RowsSpec
}

func (o *rowsOp) OpName() string              { return "per_rank_rows" }
func (o *rowsOp) Kind() NodeKind              { return KindCompute }
func (o *rowsOp) Run(p *sim.Proc) core.Report { return o.runRows(p, 0, o.spec.Units) }

// runRows runs rows [lo,hi) concurrently on every rank.
func (o *rowsOp) runRows(p *sim.Proc, lo, hi int) core.Report {
	return o.g.runRanks(p, func(rp *sim.Proc, rank, pe int) { o.spec.Run(rp, rank, pe, lo, hi) })
}

type rowsChunkOp struct {
	op   *rowsOp
	c, n int
}

func (o *rowsChunkOp) OpName() string { return fmt.Sprintf("per_rank_rows[%d/%d]", o.c, o.n) }
func (o *rowsChunkOp) Kind() NodeKind { return KindCompute }
func (o *rowsChunkOp) chunked() bool  { return true }
func (o *rowsChunkOp) Run(p *sim.Proc) core.Report {
	lo, hi := core.ChunkSpan(o.c, o.n, o.op.spec.Units)
	return o.op.runRows(p, lo, hi)
}

// symmA2ARowsOp is a generic library All-to-All whose per-rank-pair
// block is declared row-structured: rows rows of elemsPerRow elements
// each. Eagerly it moves every block whole; a wavefront partition
// splits it into sub-block chunk exchanges (collectives.AllToAllSub)
// forming a chunk-scheduled chain, so row bands flow through the
// exchange chunk by chunk.
type symmA2ARowsOp struct {
	g          *Graph
	send, recv *shmem.Symm
	rows, epr  int // per-block row count, elements per row
	algo       collectives.Algo
}

func (o *symmA2ARowsOp) OpName() string              { return "all_to_all" }
func (o *symmA2ARowsOp) Kind() NodeKind              { return KindCollective }
func (o *symmA2ARowsOp) Run(p *sim.Proc) core.Report { return o.runRows(p, 0, 0, o.rows) }

// runRows exchanges the per-block row band [lo,hi) as the given chunk
// of a chunk-scheduled chain (see core.ChunkComm).
func (o *symmA2ARowsOp) runRows(p *sim.Proc, chunk, lo, hi int) core.Report {
	start := p.Now()
	core.ChunkComm(o.g.world.Platform(), o.g.pes, chunk).AllToAllSub(p, o.send, o.recv, o.rows*o.epr, lo*o.epr, (hi-lo)*o.epr, o.algo)
	return core.SpanReport(start, p.Now(), len(o.g.pes))
}

type symmA2ARowsChunkOp struct {
	op   *symmA2ARowsOp
	c, n int
}

func (o *symmA2ARowsChunkOp) OpName() string { return fmt.Sprintf("all_to_all[%d/%d]", o.c, o.n) }
func (o *symmA2ARowsChunkOp) Kind() NodeKind { return KindCollective }
func (o *symmA2ARowsChunkOp) chunked() bool  { return true }
func (o *symmA2ARowsChunkOp) Run(p *sim.Proc) core.Report {
	lo, hi := core.ChunkSpan(o.c, o.n, o.op.rows)
	return o.op.runRows(p, o.c, lo, hi)
}

// loweredOp marks ops that can be chunk sub-nodes of a pipelined or
// wavefront lowering (under any mode's plan); chunked reports whether
// this one is. Planning uses it to detect an already-lowered graph and
// refuse to re-chunk chunk nodes.
type loweredOp interface{ chunked() bool }
