package core

import (
	"fmt"

	"fusedcc/internal/collectives"
	"fusedcc/internal/gpu"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

// EmbeddingGradExchange is the backward counterpart of the fused
// embedding + All-to-All: pooled-output gradients, laid out {L, k*T*D}
// on each rank (the forward output layout), travel back to their table
// owners, which scatter-add them into the embedding tables. The paper's
// Fig 15 overlaps this backward All-to-All with the embedding gradient
// apply exactly as the forward pass overlaps pooling with the forward
// All-to-All.
//
// Fused execution is one persistent kernel per rank: send-side logical
// WGs read gradient slices from GradOut and put them to the owning rank
// (communication-aware: remote owners first, filling the wire early);
// apply-side logical WGs wait on per-slice arrival flags and
// scatter-add each slice into the local tables the moment it lands.
// Baseline: an RCCL-style All-to-All of all gradients followed by a
// separate scatter-add kernel.
type EmbeddingGradExchange struct {
	// Fwd is the forward operator this exchange mirrors: shapes,
	// tables, slice geometry and PEs are shared.
	Fwd *EmbeddingAllToAll
	// GradOut holds each rank's {L, k*T*D} output gradients.
	GradOut *shmem.Symm
	// GradIn receives, on each rank, the gradients for its own tables
	// over the global batch. Fused layout: [T][B][D] table-major.
	// Baseline layout: [src][T][L][D] blocks (the collective's natural
	// shape) — same values, permuted; see GradInAt.
	GradIn *shmem.Symm
	// RowsPerWG coarsens the simulation like the forward op.
	RowsPerWG int
}

// NewEmbeddingGradExchange builds the backward exchange for a forward
// operator, allocating the gradient buffers.
func NewEmbeddingGradExchange(fwd *EmbeddingAllToAll) *EmbeddingGradExchange {
	return &EmbeddingGradExchange{
		Fwd:       fwd,
		GradOut:   fwd.World.Malloc(fwd.L * fwd.rowStride),
		GradIn:    fwd.World.Malloc(fwd.T * fwd.GlobalBatch * fwd.D),
		RowsPerWG: fwd.RowsPerWG,
	}
}

// GradInAt returns the element offset of gradient row (t, b) on the
// owner, under either layout.
func (g *EmbeddingGradExchange) GradInAt(fused bool, t, b int) int {
	op := g.Fwd
	if fused {
		return (t*op.GlobalBatch + b) * op.D
	}
	src := b / op.L
	return src*(op.T*op.L*op.D) + t*op.L*op.D + (b-src*op.L)*op.D
}

// gradSliceCount returns the incoming slice count per rank: all of its
// tables over the global batch.
func (g *EmbeddingGradExchange) gradSliceCount() int {
	return g.Fwd.T * g.Fwd.GlobalBatch / g.Fwd.SliceRows
}

// applyRowsCost charges the scatter-add of n pooled-gradient rows of
// table t on the WG: read the gradient rows, then read-modify-write the
// touched table rows (gather-pattern traffic on both sides).
func (g *EmbeddingGradExchange) applyRowsCost(wg *gpu.WG, rank, t, n int) {
	op := g.Fwd
	pool := op.Sets[rank].Bags[t].AvgPooling
	if pool <= 0 {
		pool = 1
	}
	dim := float64(op.D)
	wg.Read(float64(n) * dim * 4)
	wg.Gather(float64(n) * pool * dim * 4)
	wg.Write(float64(n) * pool * dim * 4)
}

// RunFused executes the overlapped backward exchange.
func (g *EmbeddingGradExchange) RunFused(p *sim.Proc) Report {
	op := g.Fwd
	w := op.World
	pl := w.Platform()
	e := pl.E
	rep := Report{Start: e.Now(), PEEnd: make([]sim.Time, op.k)}

	rowsPerWG := sliceWGRows(g.RowsPerWG, op.SliceRows)
	// arrived[owner]: one flag per incoming gradient slice, set when
	// its block is visible at the owner.
	arrived := w.MallocFlags(g.gradSliceCount())
	lSlices := op.L / op.SliceRows

	p.ForkJoin(op.k, "fused.embgrad", func(rp *sim.Proc, s int) {
		g.runRank(rp, s, arrived, rowsPerWG, lSlices, &rep)
		rep.PEEnd[s] = rp.Now()
	})
	rep.End = e.Now()
	return rep
}

// sendItem is one gradient slice a rank sends: owner's table t, the
// rank's local batch slice.
type sendItem struct{ owner, t, slice int }

func (g *EmbeddingGradExchange) runRank(rp *sim.Proc, s int, arrived *shmem.Flags, rowsPerWG, lSlices int, rep *Report) {
	op := g.Fwd
	w := op.World
	pe := op.PEs[s]
	dev := w.Platform().Device(pe)

	// Send items: for each owner rank o and each of o's tables, my L
	// local gradient rows form lSlices slices. Comm-aware order:
	// remote owners first, self last.
	var sends []sendItem
	for off := 1; off <= op.k; off++ {
		o := (s + off) % op.k
		for t := 0; t < op.T; t++ {
			for sl := 0; sl < lSlices; sl++ {
				sends = append(sends, sendItem{o, t, sl})
			}
		}
	}
	applies := g.gradSliceCount()
	slicesPerTable := op.GlobalBatch / op.SliceRows

	phys := dev.Config().CUs * op.Config.fusedWGsPerCU(dev) / rowsPerWG
	if phys < 1 {
		phys = 1
	}
	if total := len(sends) + applies; phys > total {
		phys = total
	}

	// Phase 1 streams gradient slices out. Each slice is a strided read
	// from GradOut and one non-blocking put (or a local copy for this
	// rank's own tables). Phase 2 scatter-adds incoming slices: each
	// persistent WG owns a strided subset, and a slice is applied the
	// moment its arrival flag is raised, so early arrivals (the local
	// contribution, then near sources) overlap the still in-flight
	// remote gradients. Each item is one step.
	send := func(wg *gpu.WG, it sendItem) {
		gt := it.owner*op.T + it.t
		rows := op.SliceRows
		b0 := s*op.L + it.slice*op.SliceRows // global batch row
		srcOff := it.slice*op.SliceRows*op.rowStride + gt*op.D
		fi := it.t*slicesPerTable + b0/op.SliceRows
		wg.Read(float64(rows*op.D) * 4)
		wg.Busy(op.Config.Bookkeeping)
		if it.owner == s {
			w.StoreRemoteRows(wg, pe, g.GradIn, g.GradInAt(true, it.t, b0), op.D, g.GradOut.On(pe), srcOff, op.rowStride, rows, op.D)
			w.StoreRemoteFlag(wg, pe, arrived, fi, 1)
			return
		}
		dstPE := op.PEs[it.owner]
		w.PutNbiRows(wg, dstPE, g.GradIn,
			g.GradInAt(true, it.t, b0), op.D,
			g.GradOut.On(pe), srcOff, op.rowStride,
			rows, op.D)
		w.Fence(wg)
		w.PutFlagNbi(wg, dstPE, arrived, fi, 1)
		rep.RemotePuts++
		rep.RemoteBytes += float64(rows*op.D) * 4
	}
	apply := func(wg *gpu.WG, i int) {
		arrived.WaitGE(wg, i, 1)
		g.applyRowsCost(wg, s, i/slicesPerTable, op.SliceRows)
		wg.Busy(op.Config.Bookkeeping)
	}
	dev.Launch(rp, gpu.Kernel{
		Name:     fmt.Sprintf("fused.embgrad.%d", s),
		PhysWGs:  phys,
		WGsPerCU: op.Config.fusedWGsPerCU(dev),
		Lanes:    rowsPerWG,
		Body: func(wg *gpu.WG) func() bool {
			idx, i := wg.PhysID, wg.PhysID // the next send and apply items
			step := func() bool {
				switch {
				case idx < len(sends):
					send(wg, sends[idx])
					idx += phys
				case i < applies:
					apply(wg, i)
					i += phys
				default:
					return false
				}
				return true
			}
			step()
			return step
		},
	})
}

// RunBaseline executes the bulk-synchronous backward: gradient
// All-to-All, then a scatter-add kernel per rank.
func (g *EmbeddingGradExchange) RunBaseline(p *sim.Proc) Report {
	op := g.Fwd
	pl := op.World.Platform()
	e := pl.E
	rep := Report{Start: e.Now(), PEEnd: make([]sim.Time, op.k)}
	rowsPerWG := wgRows(g.RowsPerWG)

	// Pack: the {L, k*T*D} gradient layout interleaves owners, but the
	// library All-to-All needs contiguous per-destination blocks — a
	// full read+write pass the fused path's strided puts avoid.
	cnt := op.T * op.L * op.D
	packed := op.World.Malloc(op.k * cnt)
	p.ForkJoin(op.k, "base.embgrad.pack", func(rp *sim.Proc, s int) {
		pe := op.PEs[s]
		src := g.GradOut.On(pe)
		dst := packed.On(pe)
		grid := op.k * op.T
		pl.Device(pe).LaunchGrid(rp, "grad.pack", grid, 0, func(wg *gpu.WG, l int) {
			d, t := l/op.T, l%op.T
			blockBytes := float64(op.L*op.D) * 4
			wg.Read(blockBytes)
			wg.Write(blockBytes)
			if dst.Functional() {
				wg.Then(func() {
					for lr := 0; lr < op.L; lr++ {
						dst.CopyWithin(d*cnt+t*op.L*op.D+lr*op.D, src, lr*op.rowStride+(d*op.T+t)*op.D, op.D)
					}
				})
			}
		})
	})

	// Exchange: each rank sends its packed T*L*D block per owner.
	comm := collectives.New(pl, op.PEs)
	comm.AllToAll(p, packed, g.GradIn, cnt, op.Config.Collective)

	// Scatter-add kernel per rank over all its tables' gradient rows.
	p.ForkJoin(op.k, "base.embgrad", func(rp *sim.Proc, s int) {
		rows := op.T * op.GlobalBatch
		grid := (rows + rowsPerWG - 1) / rowsPerWG
		pl.Device(op.PEs[s]).LaunchGridLanes(rp, "emb.scatteradd", grid, 0, rowsPerWG, func(wg *gpu.WG, l int) {
			item := l * rowsPerWG
			n := rowsPerWG
			if item+n > rows {
				n = rows - item
			}
			g.applyRowsCost(wg, s, item/op.GlobalBatch, n)
		})
		rep.PEEnd[s] = rp.Now()
	})
	rep.End = e.Now()
	return rep
}
