package core

import (
	"fmt"

	"fusedcc/internal/gpu"
	"fusedcc/internal/kernels"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
	"fusedcc/internal/triton"
)

// GEMMAllToAll is the fused GEMM + All-to-All (combine) operator for MoE
// expert parallelism (§II-A, §III-B): every rank runs its expert's
// feed-forward GEMM over tokens gathered from all ranks; output rows are
// grouped by originating rank, and each tile is communicated back to its
// origin the moment it is computed. The kernel is authored in the
// Triton-like tile DSL with the communication extensions, mirroring the
// paper's implementation route (§III-D).
//
// Shapes: per-rank GEMM is (k*TokensPerRank) x N with row block d
// belonging to rank d. Recv layout per PE: [k][TokensPerRank][N] (block
// s holds rows computed by rank s's expert) — the layout the combine
// step consumes, so no reshuffle is needed on either path.
type GEMMAllToAll struct {
	World  *shmem.World
	PEs    []int
	Gemms  []*kernels.GEMM // per rank; same M, N, tiling
	Config Config

	// Recv is the combine output, k*TokensPerRank*N elements per PE.
	Recv *shmem.Symm

	k, tokens int         // tokens per rank
	send      *shmem.Symm // lazy: baseline send staging
}

// NewGEMMAllToAll validates shapes and allocates the combine buffer.
// TileM need not divide the per-rank token count: the operator tiles
// each destination block independently, so a non-divisible shape gets a
// ragged last row band per block (never a tile straddling two
// destination ranks).
func NewGEMMAllToAll(w *shmem.World, pes []int, gemms []*kernels.GEMM, cfg Config) (*GEMMAllToAll, error) {
	op := &GEMMAllToAll{World: w, PEs: pes, Gemms: gemms, Config: cfg, k: len(pes)}
	if op.k == 0 || len(gemms) != op.k {
		return nil, fmt.Errorf("core: %d PEs with %d GEMMs", op.k, len(gemms))
	}
	g0 := gemms[0]
	for s, g := range gemms {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("core: rank %d: %w", s, err)
		}
		if g.M != g0.M || g.N != g0.N || g.TileM != g0.TileM || g.TileN != g0.TileN {
			return nil, fmt.Errorf("core: rank %d GEMM shape differs", s)
		}
	}
	if g0.M%op.k != 0 {
		return nil, fmt.Errorf("core: GEMM M=%d not divisible by %d ranks", g0.M, op.k)
	}
	op.tokens = g0.M / op.k
	op.Recv = w.Malloc(g0.M * g0.N)
	return op, nil
}

// rowBands returns the row-band count per destination block:
// ceil(tokens/TileM), with a ragged last band when TileM does not divide
// the tokens per rank. Never less than 1.
func (op *GEMMAllToAll) rowBands() int {
	nb := (op.tokens + op.Gemms[0].TileM - 1) / op.Gemms[0].TileM
	if nb < 1 {
		nb = 1
	}
	return nb
}

// opTiles returns the operator's communication-tile count: one tile per
// {destination block, row band, column tile}. The operator owns this
// tiling (rather than the kernel's global M tiling) so no tile ever
// straddles two destination blocks, whatever TileM is.
func (op *GEMMAllToAll) opTiles() int {
	return op.k * op.rowBands() * op.Gemms[0].TilesN()
}

// tileRect returns operator tile t's destination rank and its global
// output rectangle [mlo,mhi) x [nlo,nhi). Tiles enumerate destination-
// major, then row band, then column tile — identical to the kernel's
// row-major tile order whenever TileM divides the tokens per rank.
func (op *GEMMAllToAll) tileRect(t int) (d, mlo, mhi, nlo, nhi int) {
	g := op.Gemms[0]
	tn := g.TilesN()
	nb := op.rowBands()
	row := t / tn
	d = row / nb
	band := row % nb
	mlo = d*op.tokens + band*g.TileM
	mhi = mlo + g.TileM
	if blockEnd := (d + 1) * op.tokens; mhi > blockEnd {
		mhi = blockEnd
	}
	nlo = (t % tn) * g.TileN
	nhi = nlo + g.TileN
	if nhi > g.N {
		nhi = g.N
	}
	return
}

// RunFused executes the Triton-built fused kernel on every rank.
func (op *GEMMAllToAll) RunFused(p *sim.Proc) Report {
	w := op.World
	pl := w.Platform()
	e := pl.E
	rep := Report{Start: e.Now(), PEEnd: make([]sim.Time, op.k)}

	dev0 := pl.Device(op.PEs[0])
	occ := op.Config.fusedWGsPerCU(dev0)
	phys := dev0.Config().CUs * occ
	if phys > op.opTiles() {
		phys = op.opTiles()
	}
	// tileDone[src*phys + w] on dst: rank src's WG w delivered all its
	// tiles destined for dst.
	tileDone := w.MallocFlags(op.k * phys)

	p.ForkJoin(op.k, "fused.gemm", func(rp *sim.Proc, s int) {
		pe := op.PEs[s]
		g := op.Gemms[s]
		functional := op.Recv.On(pe).Functional()

		// Communication-aware program order: tiles bound for the
		// costliest links (cross-node NIC, then fabric) run first.
		order := make([]int, 0, op.opTiles())
		if op.Config.Schedule == CommAware {
			for _, d := range commAwareDestOrder(pl, op.PEs, s) {
				for t := 0; t < op.opTiles(); t++ {
					if td, _, _, _, _ := op.tileRect(t); td == d {
						order = append(order, t)
					}
				}
			}
		} else {
			for t := 0; t < op.opTiles(); t++ {
				order = append(order, t)
			}
		}

		remaining := make([][]int, phys)
		kb := triton.NewBuilder(fmt.Sprintf("fused.gemm_a2a.%d", s), pl.Device(pe), w).
			Grid(op.opTiles()).Occupancy(occ).Order(order)
		kb.Body(func(tc *triton.TileCtx) {
			if remaining[tc.Phys] == nil {
				// First program on this WG: count tiles per
				// destination for flag raising.
				counts := make([]int, op.k)
				for i := tc.Phys; i < op.opTiles(); i += tc.NumPhys {
					td, _, _, _, _ := op.tileRect(order[i])
					counts[td]++
				}
				remaining[tc.Phys] = counts
				for d := 0; d < op.k; d++ {
					if counts[d] == 0 && d != s {
						tc.CommFlag(op.PEs[d], tileDone, s*phys+tc.Phys, 1)
					}
				}
			}
			d, mlo, mhi, nlo, nhi := op.tileRect(tc.PID)
			tm, tn := mhi-mlo, nhi-nlo
			// tl.load A and B tiles, tl.dot.
			tc.Load(float64(tm*g.K)*4 + float64(tn*g.K)*4)
			tc.Dot(2 * float64(tm) * float64(tn) * float64(g.K))
			var vals []float32
			if functional {
				vals = make([]float32, tm*tn)
				tc.WG().Then(func() { g.ValuesRect(mlo, mhi, nlo, nhi, vals) })
			}
			// Communicate the tile straight to its origin rank:
			// recv[s][mlo-d*tokens ...][nlo ...].
			dstOff := (s*op.tokens+(mlo-d*op.tokens))*g.N + nlo
			tc.CommPutRows(op.PEs[d], op.Recv, dstOff, g.N, vals, tm, tn)
			tc.WG().Busy(op.Config.Bookkeeping)
			if d != s {
				rep.RemotePuts++
				rep.RemoteBytes += float64(tm*tn) * 4
			}
			remaining[tc.Phys][d]--
			if remaining[tc.Phys][d] == 0 && d != s {
				tc.CommFlag(op.PEs[d], tileDone, s*phys+tc.Phys, 1)
			}
		})
		kb.OnRetire(func(tc *triton.TileCtx) {
			// A WG that received no programs still must raise its
			// flags and wait for the combine to complete.
			if remaining[tc.Phys] == nil {
				for d := 0; d < op.k; d++ {
					if d != s {
						tc.CommFlag(op.PEs[d], tileDone, s*phys+tc.Phys, 1)
					}
				}
			}
			for src := 0; src < op.k; src++ {
				if src != s {
					tc.CommWait(tileDone, src*phys+tc.Phys, 1)
				}
			}
		})
		kb.Launch(rp)
		rep.PEEnd[s] = rp.Now()
	})
	rep.End = e.Now()
	return rep
}

// sendBuf lazily allocates the baseline send staging buffer.
func (op *GEMMAllToAll) sendBuf() *shmem.Symm {
	if op.send == nil {
		g0 := op.Gemms[0]
		op.send = op.World.Malloc(g0.M * g0.N)
	}
	return op.send
}

// MaxChunks returns the finest pipelining granularity the operator
// supports: one output-tile row band per destination block per chunk
// (the ragged tail band counts), never less than 1.
func (op *GEMMAllToAll) MaxChunks() int { return op.rowBands() }

// chunkRows returns the token-row band [r0,r1) — within every
// destination block — of chunk c of n, aligned to the output tiling.
// The last band clamps to the tokens per rank, so ragged shapes cover
// every row exactly once.
func (op *GEMMAllToAll) chunkRows(c, n int) (r0, r1 int) {
	tlo, thi := chunkRange(c, n, op.rowBands())
	r0, r1 = tlo*op.Gemms[0].TileM, thi*op.Gemms[0].TileM
	if r0 > op.tokens {
		r0 = op.tokens
	}
	if r1 > op.tokens {
		r1 = op.tokens
	}
	return
}

// RunComputeChunk executes chunk c of n of the compute half: the stock
// tiled GEMM kernel per rank over the tiles whose output rows fall in
// this chunk's row band of every destination block, writing into the
// send staging buffer. The n chunks together compute every tile exactly
// once, so chunked execution stays bit-exact with eager.
func (op *GEMMAllToAll) RunComputeChunk(p *sim.Proc, c, n int) Report {
	pl := op.World.Platform()
	e := pl.E
	r0, r1 := op.chunkRows(c, n)
	if r1 <= r0 {
		return SpanReport(e.Now(), e.Now(), op.k)
	}
	rep := Report{Start: e.Now(), PEEnd: make([]sim.Time, op.k)}
	send := op.sendBuf()
	p.ForkJoin(op.k, "base.gemm", func(rp *sim.Proc, s int) {
		pe := op.PEs[s]
		g := op.Gemms[s]
		// Operator tiles never straddle a destination block (each
		// block is tiled independently, ragged tail clamped), so
		// block-local row membership selects whole tiles.
		var tiles []int
		for t := 0; t < op.opTiles(); t++ {
			d, mlo, _, _, _ := op.tileRect(t)
			if lr := mlo - d*op.tokens; lr >= r0 && lr < r1 {
				tiles = append(tiles, t)
			}
		}
		out := send.On(pe)
		pl.Device(pe).LaunchGrid(rp, "gemm", len(tiles), 0, func(wg *gpu.WG, l int) {
			_, mlo, mhi, nlo, nhi := op.tileRect(tiles[l])
			g.ComputeRect(wg, mlo, mhi, nlo, nhi, out)
		})
		rep.PEEnd[s] = rp.Now()
	})
	rep.End = e.Now()
	return rep
}

// RunCollectiveChunk executes chunk c of n of the collective half: the
// RCCL-style sub-block combine All-to-All moving exactly the row band
// RunComputeChunk(c, n) staged, out of every destination block.
// Disjoint bands cover the blocks, so the n chunked exchanges move
// precisely what the single full combine would.
func (op *GEMMAllToAll) RunCollectiveChunk(p *sim.Proc, c, n int) Report {
	pl := op.World.Platform()
	e := pl.E
	r0, r1 := op.chunkRows(c, n)
	start := e.Now()
	if r1 > r0 {
		g0 := op.Gemms[0]
		ChunkComm(pl, op.PEs, c).AllToAllSub(p, op.sendBuf(), op.Recv, op.tokens*g0.N, r0*g0.N, (r1-r0)*g0.N, op.Config.Collective)
	}
	return SpanReport(start, e.Now(), op.k)
}

// RunBaseline executes the bulk-synchronous comparator: the stock tiled
// GEMM kernel per rank (writing C locally), then an RCCL-style
// All-to-All over the contiguous row blocks.
func (op *GEMMAllToAll) RunBaseline(p *sim.Proc) Report { return runBaseline(p, op) }

// Output returns the combine output, k*TokensPerRank*N elements per PE.
func (op *GEMMAllToAll) Output() *shmem.Symm { return op.Recv }
