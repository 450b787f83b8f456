package core

import (
	"fmt"

	"fusedcc/internal/gpu"
	"fusedcc/internal/kernels"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

// GEMVAllReduce is the fused GEMV + AllReduce operator (§III-B, Fig 7):
// the token-phase Megatron row-parallel linear layer. Every rank
// computes partial outputs y_s = W_s.x_s over the full output length M;
// the fused kernel reduces them with the two-phase direct algorithm —
// each rank owns 1/k of the output tiles, peers send their partial
// tiles straight into the owner's staging buffer, the owner reduces and
// broadcasts the result. Tile delivery is routed per destination:
// zero-copy native stores to same-node owners (the paper's scale-up
// path), ordered-channel puts to cross-node owners, so the operator
// runs on any Nodes x GPUsPerNode shape.
//
// Physical WG w handles the same tile set {t : t mod phys == w} on every
// rank, so the reduction dependency is WG-to-WG: each physical WG sets
// exactly one ready flag per peer once all its tiles have been stored
// there (§III-B "to reduce the amount of synchronization").
type GEMVAllReduce struct {
	World  *shmem.World
	PEs    []int
	Gemvs  []*kernels.GEMV // per rank; same M and TileM, K may differ
	Config Config

	// Out is the reduced output vector, M elements on every PE.
	Out *shmem.Symm

	k, m, tiles int
	tmp         *shmem.Symm // per PE: [k][M] staging for partial tiles
}

// NewGEMVAllReduce validates shapes and allocates output and staging.
func NewGEMVAllReduce(w *shmem.World, pes []int, gemvs []*kernels.GEMV, cfg Config) (*GEMVAllReduce, error) {
	op := &GEMVAllReduce{World: w, PEs: pes, Gemvs: gemvs, Config: cfg, k: len(pes)}
	if op.k == 0 || len(gemvs) != op.k {
		return nil, fmt.Errorf("core: %d PEs with %d GEMVs", op.k, len(gemvs))
	}
	for s, g := range gemvs {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("core: rank %d: %w", s, err)
		}
		if g.M != gemvs[0].M || g.TileM != gemvs[0].TileM {
			return nil, fmt.Errorf("core: rank %d output tiling differs", s)
		}
	}
	op.m = gemvs[0].M
	op.tiles = gemvs[0].Tiles()
	op.Out = w.Malloc(op.m)
	op.tmp = w.Malloc(op.k * op.m)
	return op, nil
}

// owner returns the rank that reduces tile t (contiguous tile blocks).
func (op *GEMVAllReduce) owner(t int) int {
	per := (op.tiles + op.k - 1) / op.k
	o := t / per
	if o >= op.k {
		o = op.k - 1
	}
	return o
}

// RunFused executes the fused operator on all ranks and blocks until the
// slowest kernel retires.
func (op *GEMVAllReduce) RunFused(p *sim.Proc) Report {
	w := op.World
	pl := w.Platform()
	e := pl.E
	rep := Report{Start: e.Now(), PEEnd: make([]sim.Time, op.k)}

	dev0 := pl.Device(op.PEs[0])
	phys := dev0.Config().CUs * op.Config.fusedWGsPerCU(dev0)
	if phys > op.tiles {
		phys = op.tiles
	}
	// storeDone[dst][src*phys+w]: src's WG w finished storing partial
	// tiles into dst. bcastDone is the all-gather equivalent.
	storeDone := w.MallocFlags(op.k * phys)
	bcastDone := w.MallocFlags(op.k * phys)

	p.ForkJoin(op.k, "fused.gemv", func(rp *sim.Proc, s int) {
		op.runRank(rp, s, phys, storeDone, bcastDone, &rep)
		rep.PEEnd[s] = rp.Now()
	})
	rep.End = e.Now()
	return rep
}

func (op *GEMVAllReduce) runRank(rp *sim.Proc, s, phys int, storeDone, bcastDone *shmem.Flags, rep *Report) {
	w := op.World
	pl := w.Platform()
	pe := op.PEs[s]
	dev := pl.Device(pe)
	g := op.Gemvs[s]
	functional := op.Out.On(pe).Functional()
	var destOrder []int // shared by every WG of the rank
	if op.Config.Schedule == CommAware {
		destOrder = commAwareDestOrder(pl, op.PEs, s)
	}

	dev.Launch(rp, gpu.Kernel{
		Name:     fmt.Sprintf("fused.gemv.%d", s),
		PhysWGs:  phys,
		WGsPerCU: op.Config.fusedWGsPerCU(dev),
		Body: func(wg *gpu.WG) {
			me := wg.PhysID
			// My tiles, ordered by descending owner link cost
			// (comm-aware) or natural (oblivious).
			var myTiles []int
			for t := me; t < op.tiles; t += phys {
				myTiles = append(myTiles, t)
			}
			if op.Config.Schedule == CommAware {
				ordered := make([]int, 0, len(myTiles))
				for _, d := range destOrder {
					for _, t := range myTiles {
						if op.owner(t) == d {
							ordered = append(ordered, t)
						}
					}
				}
				myTiles = ordered
			}
			// Per-destination outstanding-tile counts for flag raising.
			remaining := make([]int, op.k)
			for _, t := range myTiles {
				remaining[op.owner(t)]++
			}
			raise := func(d int) {
				if d == s {
					return // own staging needs no flag
				}
				w.SendFlag(wg, op.PEs[d], storeDone, s*phys+me, 1)
			}
			for d := 0; d < op.k; d++ {
				if remaining[d] == 0 {
					raise(d)
				}
			}
			var scratch []float32
			if functional {
				scratch = make([]float32, g.TileM)
			}
			// Compute phase: partial tiles stream straight into the
			// owner's staging slot [s][tile rows] — zero copy within the
			// node, channel puts across nodes.
			for _, t := range myTiles {
				d := op.owner(t)
				lo, hi := g.TileRange(t)
				g.ComputeTileValues(wg, t, scratch)
				w.SendValues(wg, op.PEs[d], op.tmp, s*op.m+lo, scratch, hi-lo)
				wg.Busy(op.Config.Bookkeeping)
				remaining[d]--
				if remaining[d] == 0 {
					raise(d)
				}
				if d != s {
					rep.RemotePuts++
					rep.RemoteBytes += float64(hi-lo) * 4
				}
			}
			// Reduce phase: wait for the counterpart WGs on every peer,
			// then reduce my owned tiles and broadcast the results.
			for src := 0; src < op.k; src++ {
				if src != s {
					storeDone.WaitGE(wg, src*phys+me, 1)
				}
			}
			for _, t := range myTiles {
				if op.owner(t) != s {
					continue
				}
				lo, hi := g.TileRange(t)
				rows := hi - lo
				// Read the k staged copies, add, producing the final
				// tile in registers.
				wg.Read(float64(op.k*rows) * 4)
				wg.Compute(float64((op.k - 1) * rows))
				if functional {
					tmpBuf := op.tmp.On(pe)
					for r := 0; r < rows; r++ {
						var acc float32
						for src := 0; src < op.k; src++ {
							acc += tmpBuf.Data()[src*op.m+lo+r]
						}
						scratch[r] = acc
					}
				}
				// All-gather: send the reduced tile into every rank's
				// output (own included).
				for off := 0; off < op.k; off++ {
					d := (s + off) % op.k
					w.SendValues(wg, op.PEs[d], op.Out, lo, scratch, rows)
					if d != s {
						rep.RemoteBytes += float64(rows) * 4
					}
				}
			}
			for d := 0; d < op.k; d++ {
				if d != s {
					w.SendFlag(wg, op.PEs[d], bcastDone, s*phys+me, 1)
				}
			}
			// Tail: output complete once every counterpart WG has
			// broadcast its reduced tiles here.
			for src := 0; src < op.k; src++ {
				if src != s {
					bcastDone.WaitGE(wg, src*phys+me, 1)
				}
			}
		},
	})
}

// MaxChunks returns the finest pipelining granularity the operator
// supports: one output tile per chunk, never less than 1.
func (op *GEMVAllReduce) MaxChunks() int {
	if op.tiles < 1 {
		return 1
	}
	return op.tiles
}

// chunkTiles returns the contiguous output-tile range [lo,hi) of chunk c
// of n (balanced split; empty when n exceeds the tile count).
func (op *GEMVAllReduce) chunkTiles(c, n int) (lo, hi int) {
	return chunkRange(c, n, op.tiles)
}

// chunkElems returns the output element range covered by chunk c of n.
func (op *GEMVAllReduce) chunkElems(c, n int) (lo, hi int) {
	tlo, thi := op.chunkTiles(c, n)
	if thi <= tlo {
		return 0, 0
	}
	g := op.Gemvs[0]
	lo, _ = g.TileRange(tlo)
	_, hi = g.TileRange(thi - 1)
	return lo, hi
}

// RunComputeChunk executes chunk c of n of the compute half: a
// conventional GEMV kernel per rank over this chunk's contiguous
// output-tile range, writing its partial output into Out (each rank's
// Out instance holds that rank's un-reduced y). The n chunks together
// compute every tile exactly once, so chunked execution stays bit-exact
// with eager.
func (op *GEMVAllReduce) RunComputeChunk(p *sim.Proc, c, n int) Report {
	pl := op.World.Platform()
	e := pl.E
	tlo, thi := op.chunkTiles(c, n)
	if thi <= tlo {
		return SpanReport(e.Now(), e.Now(), op.k)
	}
	rep := Report{Start: e.Now(), PEEnd: make([]sim.Time, op.k)}
	p.ForkJoin(op.k, "base.gemv", func(rp *sim.Proc, s int) {
		pe := op.PEs[s]
		g := op.Gemvs[s]
		out := op.Out.On(pe)
		pl.Device(pe).LaunchGrid(rp, "gemv", thi-tlo, 0, func(wg *gpu.WG, t int) {
			tile := tlo + t
			lo, _ := g.TileRange(tile)
			g.ComputeTile(wg, tile, out, lo)
		})
		rep.PEEnd[s] = rp.Now()
	})
	rep.End = e.Now()
	return rep
}

// RunCollectiveChunk executes chunk c of n of the collective half: the
// library AllReduce over exactly the output rows RunComputeChunk(c, n)
// staged. Disjoint chunk ranges cover the output, so the n chunked
// collectives reduce precisely what the single full AllReduce would.
func (op *GEMVAllReduce) RunCollectiveChunk(p *sim.Proc, c, n int) Report {
	pl := op.World.Platform()
	e := pl.E
	lo, hi := op.chunkElems(c, n)
	start := e.Now()
	if hi > lo {
		ChunkComm(pl, op.PEs, c).AllReduce(p, op.Out, lo, hi-lo, op.Config.Collective)
	}
	return SpanReport(start, e.Now(), op.k)
}

// RunBaseline executes the bulk-synchronous comparator: a conventional
// GEMV kernel per rank writing the partial output, then an RCCL-style
// two-phase direct AllReduce.
func (op *GEMVAllReduce) RunBaseline(p *sim.Proc) Report { return runBaseline(p, op) }

// Output returns the reduced output vector, M elements on every PE.
func (op *GEMVAllReduce) Output() *shmem.Symm { return op.Out }
