package graph

import (
	"fmt"

	"fusedcc/internal/collectives"
	"fusedcc/internal/core"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

// ---- compute ops ----

type embeddingBagOp struct{ op *core.EmbeddingAllToAll }

func (o *embeddingBagOp) OpName() string              { return "embedding_bag" }
func (o *embeddingBagOp) Kind() NodeKind              { return KindCompute }
func (o *embeddingBagOp) Run(p *sim.Proc) core.Report { return o.op.RunPooling(p) }

type gemvOp struct{ op *core.GEMVAllReduce }

func (o *gemvOp) OpName() string              { return "gemv" }
func (o *gemvOp) Kind() NodeKind              { return KindCompute }
func (o *gemvOp) Run(p *sim.Proc) core.Report { return o.op.RunCompute(p) }

type matmulOp struct{ op *core.GEMMAllToAll }

func (o *matmulOp) OpName() string              { return "matmul" }
func (o *matmulOp) Kind() NodeKind              { return KindCompute }
func (o *matmulOp) Run(p *sim.Proc) core.Report { return o.op.RunCompute(p) }

type perRankOp struct {
	g  *Graph
	fn func(p *sim.Proc, rank, pe int)
}

func (o *perRankOp) OpName() string { return "per_rank" }
func (o *perRankOp) Kind() NodeKind { return KindCompute }

func (o *perRankOp) Run(p *sim.Proc) core.Report {
	pl := o.g.world.Platform()
	e := pl.E
	rep := core.Report{Start: e.Now(), PEEnd: make([]sim.Time, len(o.g.pes))}
	wg := sim.NewWaitGroup(e)
	wg.Add(len(o.g.pes))
	for rank, pe := range o.g.pes {
		rank, pe := rank, pe
		e.Go(fmt.Sprintf("graph.rank%d", rank), func(rp *sim.Proc) {
			o.fn(rp, rank, pe)
			rep.PEEnd[rank] = rp.Now()
			wg.Done()
		})
	}
	wg.Wait(p)
	rep.End = e.Now()
	return rep
}

// ---- collective ops (eager halves of the pairs) ----

type allReduceOp struct{ op *core.GEMVAllReduce }

func (o *allReduceOp) OpName() string              { return "all_reduce" }
func (o *allReduceOp) Kind() NodeKind              { return KindCollective }
func (o *allReduceOp) Run(p *sim.Proc) core.Report { return o.op.RunAllReduce(p) }

type embAllToAllOp struct{ op *core.EmbeddingAllToAll }

func (o *embAllToAllOp) OpName() string              { return "all_to_all" }
func (o *embAllToAllOp) Kind() NodeKind              { return KindCollective }
func (o *embAllToAllOp) Run(p *sim.Proc) core.Report { return o.op.RunExchange(p) }

type gemmAllToAllOp struct{ op *core.GEMMAllToAll }

func (o *gemmAllToAllOp) OpName() string              { return "all_to_all" }
func (o *gemmAllToAllOp) Kind() NodeKind              { return KindCollective }
func (o *gemmAllToAllOp) Run(p *sim.Proc) core.Report { return o.op.RunExchange(p) }

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
	pl := o.g.world.Platform()
	rep := core.Report{Start: pl.E.Now()}
	comm := collectives.New(pl, o.g.pes)
	if o.name == "all_to_all" {
		comm.AllToAll(p, o.data, o.recv, o.elems, o.algo)
	} else {
		comm.AllReduce(p, o.data, o.off, o.elems, o.algo)
	}
	rep.End = pl.E.Now()
	// A collective occupies every rank until it completes.
	rep.PEEnd = make([]sim.Time, len(o.g.pes))
	for i := range rep.PEEnd {
		rep.PEEnd[i] = rep.End
	}
	return rep
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
	pl := o.g.world.Platform()
	e := pl.E
	rep := core.Report{Start: e.Now(), PEEnd: make([]sim.Time, len(o.g.pes))}
	wg := sim.NewWaitGroup(e)
	wg.Add(len(o.g.pes))
	for rank, pe := range o.g.pes {
		rank, pe := rank, pe
		e.Go(fmt.Sprintf("graph.rank%d", rank), func(rp *sim.Proc) {
			o.spec.Run(rp, rank, pe, lo, hi)
			rep.PEEnd[rank] = rp.Now()
			wg.Done()
		})
	}
	wg.Wait(p)
	rep.End = e.Now()
	return rep
}

type rowsChunkOp struct {
	op   *rowsOp
	c, n int
}

func (o *rowsChunkOp) OpName() string      { return fmt.Sprintf("per_rank_rows[%d/%d]", o.c, o.n) }
func (o *rowsChunkOp) Kind() NodeKind      { return KindCompute }
func (o *rowsChunkOp) chunkOf() (int, int) { return o.c, o.n }
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

// runRows exchanges the per-block row band [lo,hi); chunk > 0 rides the
// chunk-scheduled chain (flag-poll dispatch instead of a fresh launch
// and rendezvous, mirroring core's chunked collective chains).
func (o *symmA2ARowsOp) runRows(p *sim.Proc, chunk, lo, hi int) core.Report {
	pl := o.g.world.Platform()
	rep := core.Report{Start: pl.E.Now()}
	comm := collectives.New(pl, o.g.pes)
	if chunk > 0 {
		comm.SetProtocolOverhead(0)
		comm.SetLaunchOverhead(core.ChunkDispatchOverhead)
	}
	comm.AllToAllSub(p, o.send, o.recv, o.rows*o.epr, lo*o.epr, (hi-lo)*o.epr, o.algo)
	rep.End = pl.E.Now()
	rep.PEEnd = make([]sim.Time, len(o.g.pes))
	for i := range rep.PEEnd {
		rep.PEEnd[i] = rep.End
	}
	return rep
}

type symmA2ARowsChunkOp struct {
	op   *symmA2ARowsOp
	c, n int
}

func (o *symmA2ARowsChunkOp) OpName() string      { return fmt.Sprintf("all_to_all[%d/%d]", o.c, o.n) }
func (o *symmA2ARowsChunkOp) Kind() NodeKind      { return KindCollective }
func (o *symmA2ARowsChunkOp) chunkOf() (int, int) { return o.c, o.n }
func (o *symmA2ARowsChunkOp) Run(p *sim.Proc) core.Report {
	lo, hi := core.ChunkSpan(o.c, o.n, o.op.rows)
	return o.op.runRows(p, o.c, lo, hi)
}

// ---- chunked ops (substituted for pipelined and wavefront forms) ----
//
// A chunk op runs chunk c of n of one phase of a pair operator through
// the operator's chunked phase entry points, so a chunked graph
// performs exactly the eager graph's work — split into K pieces whose
// collectives overlap later pieces' compute on the device streams.
//
// Every chunk op implements loweredOp, so the plan builders can detect
// an already-lowered graph and refuse to re-chunk chunk nodes.

// loweredOp marks chunk sub-nodes produced by lowering a pipelined or
// wavefront form (under any mode's plan).
type loweredOp interface{ chunkOf() (c, n int) }

type gemvChunkOp struct {
	op   *core.GEMVAllReduce
	c, n int
}

func (o *gemvChunkOp) OpName() string              { return fmt.Sprintf("gemv[%d/%d]", o.c, o.n) }
func (o *gemvChunkOp) Kind() NodeKind              { return KindCompute }
func (o *gemvChunkOp) chunkOf() (int, int)         { return o.c, o.n }
func (o *gemvChunkOp) Run(p *sim.Proc) core.Report { return o.op.RunComputeChunk(p, o.c, o.n) }

type allReduceChunkOp struct {
	op   *core.GEMVAllReduce
	c, n int
}

func (o *allReduceChunkOp) OpName() string              { return fmt.Sprintf("all_reduce[%d/%d]", o.c, o.n) }
func (o *allReduceChunkOp) Kind() NodeKind              { return KindCollective }
func (o *allReduceChunkOp) chunkOf() (int, int)         { return o.c, o.n }
func (o *allReduceChunkOp) Run(p *sim.Proc) core.Report { return o.op.RunAllReduceChunk(p, o.c, o.n) }

type embBagChunkOp struct {
	op   *core.EmbeddingAllToAll
	c, n int
}

func (o *embBagChunkOp) OpName() string              { return fmt.Sprintf("embedding_bag[%d/%d]", o.c, o.n) }
func (o *embBagChunkOp) Kind() NodeKind              { return KindCompute }
func (o *embBagChunkOp) chunkOf() (int, int)         { return o.c, o.n }
func (o *embBagChunkOp) Run(p *sim.Proc) core.Report { return o.op.RunPoolingChunk(p, o.c, o.n) }

type embAllToAllChunkOp struct {
	op   *core.EmbeddingAllToAll
	c, n int
}

func (o *embAllToAllChunkOp) OpName() string              { return fmt.Sprintf("all_to_all[%d/%d]", o.c, o.n) }
func (o *embAllToAllChunkOp) Kind() NodeKind              { return KindCollective }
func (o *embAllToAllChunkOp) chunkOf() (int, int)         { return o.c, o.n }
func (o *embAllToAllChunkOp) Run(p *sim.Proc) core.Report { return o.op.RunExchangeChunk(p, o.c, o.n) }

type matmulChunkOp struct {
	op   *core.GEMMAllToAll
	c, n int
}

func (o *matmulChunkOp) OpName() string              { return fmt.Sprintf("matmul[%d/%d]", o.c, o.n) }
func (o *matmulChunkOp) Kind() NodeKind              { return KindCompute }
func (o *matmulChunkOp) chunkOf() (int, int)         { return o.c, o.n }
func (o *matmulChunkOp) Run(p *sim.Proc) core.Report { return o.op.RunComputeChunk(p, o.c, o.n) }

type gemmAllToAllChunkOp struct {
	op   *core.GEMMAllToAll
	c, n int
}

func (o *gemmAllToAllChunkOp) OpName() string              { return fmt.Sprintf("all_to_all[%d/%d]", o.c, o.n) }
func (o *gemmAllToAllChunkOp) Kind() NodeKind              { return KindCollective }
func (o *gemmAllToAllChunkOp) chunkOf() (int, int)         { return o.c, o.n }
func (o *gemmAllToAllChunkOp) Run(p *sim.Proc) core.Report { return o.op.RunExchangeChunk(p, o.c, o.n) }

// ---- fused ops (substituted by the compiler) ----

type fusedGEMVAllReduceOp struct{ op *core.GEMVAllReduce }

func (o *fusedGEMVAllReduceOp) OpName() string              { return "fused::gemv_allreduce" }
func (o *fusedGEMVAllReduceOp) Kind() NodeKind              { return KindFused }
func (o *fusedGEMVAllReduceOp) Run(p *sim.Proc) core.Report { return o.op.RunFused(p) }

type fusedEmbeddingAllToAllOp struct{ op *core.EmbeddingAllToAll }

func (o *fusedEmbeddingAllToAllOp) OpName() string              { return "fused::embedding_all2all" }
func (o *fusedEmbeddingAllToAllOp) Kind() NodeKind              { return KindFused }
func (o *fusedEmbeddingAllToAllOp) Run(p *sim.Proc) core.Report { return o.op.RunFused(p) }

type fusedGEMMAllToAllOp struct{ op *core.GEMMAllToAll }

func (o *fusedGEMMAllToAllOp) OpName() string              { return "fused::gemm_all2all" }
func (o *fusedGEMMAllToAllOp) Kind() NodeKind              { return KindFused }
func (o *fusedGEMMAllToAllOp) Run(p *sim.Proc) core.Report { return o.op.RunFused(p) }

// pairOf returns the backing pair operator of a compute or collective
// op that participates in fusion, or nil.
func pairOf(op Op) any {
	switch o := op.(type) {
	case *embeddingBagOp:
		return o.op
	case *gemvOp:
		return o.op
	case *matmulOp:
		return o.op
	case *allReduceOp:
		return o.op
	case *embAllToAllOp:
		return o.op
	case *gemmAllToAllOp:
		return o.op
	}
	return nil
}
