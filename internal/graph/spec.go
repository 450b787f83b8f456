package graph

import (
	"fmt"

	"fusedcc/internal/core"
	"fusedcc/internal/kernels"
	"fusedcc/internal/platform"
	"fusedcc/internal/shmem"
	"fusedcc/internal/workload"
)

// Specs are declarative operator descriptions: named-field structs that
// replace the positional-argument constructors of the old facade API.
// Build materializes a spec into per-rank kernels with seeded synthetic
// operands; the graph builders (and the facade constructors) consume
// the result.

// GEMVSpec describes a row-parallel GEMV + AllReduce workload: every
// rank holds an M x K weight shard and input, and the reduced M-vector
// lands on every GPU.
type GEMVSpec struct {
	// M is the output length (the AllReduce payload).
	M int
	// K is the per-rank reduced dimension.
	K int
	// TileM is the output-tile height, the fused communication grain.
	TileM int
	// Seed derives the per-rank synthetic operands.
	Seed int64
}

// Build materializes per-rank GEMV kernels with seeded operands.
func (sp GEMVSpec) Build(pl *platform.Platform, pes []int) ([]*kernels.GEMV, error) {
	if len(pes) == 0 {
		return nil, fmt.Errorf("graph: GEMVSpec with no PEs")
	}
	// Validate the shape before any allocation so bad dims surface as
	// errors, never as Alloc panics.
	if err := (&kernels.GEMV{M: sp.M, K: sp.K, TileM: sp.TileM}).Validate(); err != nil {
		return nil, err
	}
	gemvs := make([]*kernels.GEMV, len(pes))
	for i, pe := range pes {
		rng := workload.Rand(sp.Seed + int64(i))
		dev := pl.Device(pe)
		g := &kernels.GEMV{M: sp.M, K: sp.K, TileM: sp.TileM,
			W: dev.Alloc(sp.M * sp.K), X: dev.Alloc(sp.K)}
		workload.FillRandom(rng, g.W)
		workload.FillRandom(rng, g.X)
		gemvs[i] = g
	}
	return gemvs, nil
}

// EmbeddingSpec describes a model-parallel embedding + All-to-All
// workload: TablesPerGPU tables of Rows x Dim per rank, pooled over
// GlobalBatch with AvgPooling lookups per output row, exchanged at
// SliceRows granularity.
type EmbeddingSpec struct {
	TablesPerGPU int
	Rows, Dim    int
	GlobalBatch  int
	AvgPooling   int
	// SliceRows is the fused operator's communication granularity.
	SliceRows int
	// RowsPerWG coarsens the simulation (0 = exact, one row per
	// logical WG); timing is unchanged because the cost model is
	// linear in rows.
	RowsPerWG int
	Seed      int64
}

// Build materializes per-rank embedding-bag sets with seeded tables and
// lookups (lookups only in functional mode).
func (sp EmbeddingSpec) Build(pl *platform.Platform, pes []int) ([]*kernels.EmbeddingSet, error) {
	if len(pes) == 0 {
		return nil, fmt.Errorf("graph: EmbeddingSpec with no PEs")
	}
	if sp.TablesPerGPU <= 0 || sp.Rows <= 0 || sp.Dim <= 0 || sp.GlobalBatch <= 0 {
		return nil, fmt.Errorf("graph: invalid EmbeddingSpec %+v", sp)
	}
	sets := make([]*kernels.EmbeddingSet, len(pes))
	for i, pe := range pes {
		rng := workload.Rand(sp.Seed + int64(i))
		dev := pl.Device(pe)
		var bags []*kernels.EmbeddingBag
		for t := 0; t < sp.TablesPerGPU; t++ {
			tab := kernels.NewEmbeddingTable(dev, sp.Rows, sp.Dim)
			workload.FillRandom(rng, tab.Weights)
			bag := &kernels.EmbeddingBag{Table: tab, Batch: sp.GlobalBatch, AvgPooling: float64(sp.AvgPooling)}
			if dev.Config().Functional {
				csr := workload.Lookups(rng, sp.GlobalBatch, sp.Rows, sp.AvgPooling)
				bag.Offsets, bag.Indices = csr.Offsets, csr.Indices
			}
			bags = append(bags, bag)
		}
		sets[i] = &kernels.EmbeddingSet{Bags: bags}
	}
	return sets, nil
}

// GEMMSpec describes an expert-parallel GEMM + All-to-All workload:
// per-rank GEMM of (Tokens*ranks) x N x K whose output row blocks
// return to their originating ranks.
type GEMMSpec struct {
	// Tokens is the per-rank token count (row block height).
	Tokens int
	// N and K are the GEMM output width and reduced dimension.
	N, K int
	// TileM and TileN tile the output, the fused communication grain.
	TileM, TileN int
	Seed         int64
}

// Build materializes per-rank GEMM kernels with seeded operands.
func (sp GEMMSpec) Build(pl *platform.Platform, pes []int) ([]*kernels.GEMM, error) {
	if len(pes) == 0 {
		return nil, fmt.Errorf("graph: GEMMSpec with no PEs")
	}
	m := sp.Tokens * len(pes)
	// Validate the shape before any allocation so bad dims surface as
	// errors, never as Alloc panics.
	if err := (&kernels.GEMM{M: m, N: sp.N, K: sp.K, TileM: sp.TileM, TileN: sp.TileN}).Validate(); err != nil {
		return nil, err
	}
	gemms := make([]*kernels.GEMM, len(pes))
	for i, pe := range pes {
		rng := workload.Rand(sp.Seed + int64(i))
		dev := pl.Device(pe)
		g := &kernels.GEMM{M: m, N: sp.N, K: sp.K, TileM: sp.TileM, TileN: sp.TileN,
			A: dev.Alloc(m * sp.K), B: dev.Alloc(sp.K * sp.N)}
		workload.FillRandom(rng, g.A)
		workload.FillRandom(rng, g.B)
		gemms[i] = g
	}
	return gemms, nil
}

// GEMVFromSpec materializes a GEMVSpec and adds its compute node.
func (g *Graph) GEMVFromSpec(name string, sp GEMVSpec, deps ...Value) (Value, error) {
	gemvs, err := sp.Build(g.world.Platform(), g.pes)
	if err != nil {
		return Value{}, err
	}
	return g.NewGEMV(name, gemvs, deps...)
}

// NewOperator materializes the spec into an embedding + All-to-All
// pair operator, applying the RowsPerWG coarsening — the single
// construction path the facade and the graph builders share.
func (sp EmbeddingSpec) NewOperator(w *shmem.World, pes []int, cfg core.Config) (*core.EmbeddingAllToAll, error) {
	if sp.RowsPerWG > 1 && sp.SliceRows%sp.RowsPerWG != 0 {
		return nil, fmt.Errorf("graph: RowsPerWG %d must divide SliceRows %d", sp.RowsPerWG, sp.SliceRows)
	}
	sets, err := sp.Build(w.Platform(), pes)
	if err != nil {
		return nil, err
	}
	op, err := core.NewEmbeddingAllToAll(w, pes, sets, sp.GlobalBatch, sp.SliceRows, cfg)
	if err != nil {
		return nil, err
	}
	if sp.RowsPerWG > 1 {
		op.RowsPerWG = sp.RowsPerWG
	}
	return op, nil
}

// EmbeddingBagFromSpec materializes an EmbeddingSpec and adds its
// pooling node.
func (g *Graph) EmbeddingBagFromSpec(name string, sp EmbeddingSpec, deps ...Value) (Value, error) {
	op, err := sp.NewOperator(g.world, g.pes, g.cfg)
	if err != nil {
		return Value{}, err
	}
	return g.EmbeddingBag(name, op, deps...), nil
}

// MatMulFromSpec materializes a GEMMSpec and adds its compute node.
func (g *Graph) MatMulFromSpec(name string, sp GEMMSpec, deps ...Value) (Value, error) {
	gemms, err := sp.Build(g.world.Platform(), g.pes)
	if err != nil {
		return Value{}, err
	}
	return g.NewMatMul(name, gemms, deps...)
}
