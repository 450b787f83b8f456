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

// runRank launches rank s's persistent kernel and blocks until it ends.
func (op *GEMVAllReduce) runRank(rp *sim.Proc, s, phys int, storeDone, bcastDone *shmem.Flags, rep *Report) {
	pe := op.PEs[s]
	dev := op.World.Platform().Device(pe)
	r := &gemvRank{
		op: op, s: s, phys: phys, pe: pe, g: op.Gemvs[s],
		functional: op.Out.On(pe).Functional(),
		storeDone:  storeDone, bcastDone: bcastDone, rep: rep,
	}
	if op.Config.Schedule == CommAware {
		r.destOrder = commAwareDestOrder(op.World.Platform(), op.PEs, s)
	}
	dev.Launch(rp, gpu.Kernel{
		Name:     fmt.Sprintf("fused.gemv.%d", s),
		PhysWGs:  phys,
		WGsPerCU: op.Config.fusedWGsPerCU(dev),
		Body:     r.start,
	})
}

// gemvRank is what every workgroup of rank s's fused kernel shares.
type gemvRank struct {
	op                   *GEMVAllReduce
	s, phys, pe          int
	g                    *kernels.GEMV
	functional           bool
	destOrder            []int // comm-aware owner order, or nil
	storeDone, bcastDone *shmem.Flags
	rep                  *Report
}

// gemvWG is one physical workgroup of a rank's fused kernel. Its steps
// are small, so its charge buffer stays small: a flag for each owner it
// sends no tile, one step per partial tile, the wait for its
// counterparts' partial tiles, per owned tile a step that reduces it and
// one per peer it is broadcast to, a broadcast flag per peer, and the
// wait for the peers' broadcasts.
type gemvWG struct {
	*gemvRank
	wg        *gpu.WG
	tiles     []int // in issue order
	remaining []int // per owner: partial tiles not yet sent
	scratch   []float32
	phase     gemvPhase
	next      int // the phase's next tile index or destination rank
	off       int // gemvReduce: the next broadcast offset of tiles[next-1], or 0
}

// gemvPhase is the part of the kernel a workgroup's next step records.
type gemvPhase uint8

const (
	gemvRaise   gemvPhase = iota // flags of owners sent nothing
	gemvCompute                  // partial tiles into the owners' staging
	gemvReduce                   // owned tiles reduced and broadcast
	gemvBcast                    // broadcast flags
	gemvDone                     // peers' broadcasts waited for
)

// start is the kernel body: it sets up workgroup wg's tiles and records
// its first step.
func (r *gemvRank) start(wg *gpu.WG) func() bool {
	op := r.op
	x := &gemvWG{gemvRank: r, wg: wg}
	// My tiles, ordered by descending owner link cost (comm-aware) or
	// natural (oblivious).
	for t := wg.PhysID; t < op.tiles; t += r.phys {
		x.tiles = append(x.tiles, t)
	}
	if r.destOrder != nil {
		ordered := make([]int, 0, len(x.tiles))
		for _, d := range r.destOrder {
			for _, t := range x.tiles {
				if op.owner(t) == d {
					ordered = append(ordered, t)
				}
			}
		}
		x.tiles = ordered
	}
	// Per-destination outstanding-tile counts for flag raising.
	x.remaining = make([]int, op.k)
	for _, t := range x.tiles {
		x.remaining[op.owner(t)]++
	}
	if r.functional {
		x.scratch = make([]float32, r.g.TileM)
	}
	x.step()
	return x.step
}

// raise tells owner d that this workgroup's partial tiles have all
// landed in its staging.
func (x *gemvWG) raise(d int) {
	if d == x.s {
		return // own staging needs no flag
	}
	x.op.World.SendFlag(x.wg, x.op.PEs[d], x.storeDone, x.s*x.phys+x.wg.PhysID, 1)
}

// waitAll waits for flag src*phys+me of f from every peer src.
func (x *gemvWG) waitAll(f *shmem.Flags) {
	for src := 0; src < x.op.k; src++ {
		if src != x.s {
			f.WaitGE(x.wg, src*x.phys+x.wg.PhysID, 1)
		}
	}
}

// step records the workgroup's next step (see gemvWG).
func (x *gemvWG) step() bool {
	op := x.op
	switch x.phase {
	case gemvRaise:
		for x.next < op.k {
			d := x.next
			x.next++
			if x.remaining[d] == 0 && d != x.s {
				x.raise(d)
				return true
			}
		}
		x.phase, x.next = gemvCompute, 0
		fallthrough
	case gemvCompute:
		if x.next < len(x.tiles) {
			x.compute(x.tiles[x.next])
			x.next++
			return true
		}
		// Reduce phase: wait for the counterpart WGs on every peer
		// before reducing.
		x.waitAll(x.storeDone)
		x.phase, x.next = gemvReduce, 0
		return true
	case gemvReduce:
		if x.off > 0 {
			x.broadcast(x.tiles[x.next-1], (x.s+x.off)%op.k)
			x.off = (x.off + 1) % op.k
			return true
		}
		for x.next < len(x.tiles) {
			t := x.tiles[x.next]
			x.next++
			if op.owner(t) == x.s {
				x.reduce(t)
				x.broadcast(t, x.s)
				x.off = 1 % op.k
				return true
			}
		}
		x.phase, x.next = gemvBcast, 0
		fallthrough
	case gemvBcast:
		for x.next < op.k {
			d := x.next
			x.next++
			if d != x.s {
				op.World.SendFlag(x.wg, op.PEs[d], x.bcastDone, x.s*x.phys+x.wg.PhysID, 1)
				return true
			}
		}
		// Tail: output complete once every counterpart WG has
		// broadcast its reduced tiles here.
		x.waitAll(x.bcastDone)
		x.phase = gemvDone
		return true
	}
	return false
}

// compute records partial tile t, streamed straight into its owner's
// staging slot [s][tile rows] — zero copy within the node, channel puts
// across nodes.
func (x *gemvWG) compute(t int) {
	op, wg := x.op, x.wg
	d := op.owner(t)
	lo, hi := x.g.TileRange(t)
	x.g.ComputeTileValues(wg, t, x.scratch)
	op.World.SendValues(wg, op.PEs[d], op.tmp, x.s*op.m+lo, x.scratch, hi-lo)
	wg.Busy(op.Config.Bookkeeping)
	x.remaining[d]--
	if x.remaining[d] == 0 {
		x.raise(d)
	}
	if d != x.s {
		x.rep.RemotePuts++
		x.rep.RemoteBytes += float64(hi-lo) * 4
	}
}

// reduce records owned tile t's reduction: read the k staged copies and
// add them into the final tile in registers.
func (x *gemvWG) reduce(t int) {
	op, wg := x.op, x.wg
	lo, hi := x.g.TileRange(t)
	rows := hi - lo
	wg.Read(float64(op.k*rows) * 4)
	wg.Compute(float64((op.k - 1) * rows))
	if x.functional {
		tmp, scratch := op.tmp.On(x.pe).Data(), x.scratch
		wg.Then(func() {
			for r := 0; r < rows; r++ {
				var acc float32
				for src := 0; src < op.k; src++ {
					acc += tmp[src*op.m+lo+r]
				}
				scratch[r] = acc
			}
		})
	}
}

// broadcast records the all-gather of reduced tile t into rank d's
// output.
func (x *gemvWG) broadcast(t, d int) {
	op := x.op
	lo, hi := x.g.TileRange(t)
	op.World.SendValues(x.wg, op.PEs[d], op.Out, lo, x.scratch, hi-lo)
	if d != x.s {
		x.rep.RemoteBytes += float64(hi-lo) * 4
	}
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
