package core

import (
	"fusedcc/internal/gpu"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

// Analytic cost estimators for the pair operators — the per-operator
// half of the Auto execution mode's quasi-static cost model. Each
// operator prices its three execution forms from the device model
// (gpu.Config: WG slots, per-WG stream caps, HBM and ALU capacity,
// launch overhead), the link models (fabric stores, NIC channels), and
// the collective cost model (collectives.Estimate*):
//
//   - EstimateComputeChunk / EstimateCollectiveChunk price the chunked
//     phase entry points, including the chunk-chain dispatch discount
//     for non-head collective chunks — a selection pass sums these
//     through the pipeline recurrence to price pipeline@K.
//   - EstimateFused prices the persistent fused kernel: the roofline
//     compute time at fused occupancy overlapped against the drain of
//     the fine-grained stores/puts, plus any serial reduction phases.
//   - SaturationChunks is the WG-slot saturation point: the largest
//     pipeline depth at which every chunk still fills the device's
//     resident-workgroup slots, so chunking never serializes work the
//     full kernel ran concurrently (the ROADMAP's per-pair K clamp).
//
// Like the collective estimates, these are first-order fluid models:
// they ignore contention transients and scheduling jitter, and the auto
// experiment reports the resulting mispredict rate against simulation.

// KernelEstimate prices one conventional grid launch on a device
// configuration — the roofline model the operator estimators use,
// exported so stack builders can attach analytic cost estimates to
// custom rowwise per-rank nodes (the select pass needs them to price
// wavefront schedules through those nodes). Launch overhead is not
// included; add cfg.KernelLaunchOverhead per launch.
type KernelEstimate struct {
	// Grid is the logical work-item count.
	Grid int
	// WGsPerCU caps residency per CU (0 = device maximum), and Lanes
	// is the lane coarsening of each item (0 or 1 = none).
	WGsPerCU, Lanes int
	// Read, Gather, Write, and Flops are per-item costs (bytes and
	// multiply-adds); Fixed is a per-item fixed busy time. Gather bytes
	// are the payload; the model divides by GatherEfficiency like the
	// device does.
	Read, Gather, Write, Flops float64
	Fixed                      sim.Duration
}

// Time returns the estimated kernel body duration on cfg: the larger of
// the per-WG-limited pipeline time and the device-level HBM/ALU
// roofline.
func (ke KernelEstimate) Time(cfg gpu.Config) sim.Duration {
	if ke.Grid <= 0 {
		return 0
	}
	lanes := max(ke.Lanes, 1)
	perCU := ke.WGsPerCU
	if perCU <= 0 || perCU > cfg.MaxWGSlotsPerCU {
		perCU = cfg.MaxWGSlotsPerCU
	}
	phys := min(max(cfg.CUs*perCU/lanes, 1), ke.Grid)
	rounds := (ke.Grid + phys - 1) / phys

	gather := ke.Gather
	if cfg.GatherEfficiency > 0 {
		gather /= cfg.GatherEfficiency
	}
	streamBytes := ke.Read + ke.Write + gather
	cap := cfg.PerWGStreamBandwidth * float64(lanes)
	perItem := sim.TransferTime(streamBytes, cap) +
		sim.TransferTime(ke.Flops, cfg.FlopsPerCU*float64(lanes)) +
		ke.Fixed
	tWG := sim.Duration(rounds) * perItem

	total := float64(ke.Grid)
	tHBM := sim.TransferTime(total*streamBytes, cfg.HBMBandwidth)
	tALU := sim.TransferTime(total*ke.Flops, float64(cfg.CUs)*cfg.FlopsPerCU)
	tFix := sim.Duration(rounds) * ke.Fixed
	if t := tHBM + tFix; t > tWG {
		tWG = t
	}
	if t := tALU + tFix; t > tWG {
		tWG = t
	}
	return tWG
}

// fusedDest is one peer's communication demand from one rank of a fused
// kernel: msgs discrete messages (slices, tiles) totalling bytes.
type fusedDest struct {
	msgs  int
	bytes float64
}

// fusedDrainTime prices the drain of rank s's fused-kernel
// communication: native stores stream over the directed fabric links
// (latency + serialization), channel puts pay the per-message transfer-
// engine overhead and share the node's NIC with the sibling ranks'
// symmetric traffic. The self destination is free (plain local stores,
// already charged to the kernel).
func fusedDrainTime(w *shmem.World, pes []int, s int, dests []fusedDest) sim.Duration {
	pl := w.Platform()
	sc := w.Config()
	nChan, localRanks := 0, 0
	for d := range pes {
		if pl.SameNode(pes[s], pes[d]) {
			localRanks++
		} else {
			nChan++
		}
	}
	var t sim.Duration
	cfg := pl.Config()
	for d := range pes {
		if d == s || dests[d].msgs == 0 {
			continue
		}
		var dt sim.Duration
		if pl.SameNode(pes[s], pes[d]) {
			fc := pl.FabricOf(pes[s]).Config()
			dt = fc.StoreLatency + sim.TransferTime(dests[d].bytes, fc.LinkBandwidth)
		} else {
			dt = cfg.NICLatency + sim.Duration(dests[d].msgs)*sc.ChannelOverhead +
				sim.TransferTime(dests[d].bytes*float64(nChan*localRanks), cfg.NICBandwidth)
		}
		if dt > t {
			t = dt
		}
	}
	return t
}

// --- GEMV + AllReduce ---

// maxK returns the largest per-rank reduced dimension (ranks may hold
// different K shards; the slowest rank bounds the phase).
func (op *GEMVAllReduce) maxK() int {
	k := 0
	for _, g := range op.Gemvs {
		if g.K > k {
			k = g.K
		}
	}
	return k
}

// EstimateComputeChunk predicts RunComputeChunk(c, n): the conventional
// GEMV kernels over the chunk's tile range.
func (op *GEMVAllReduce) EstimateComputeChunk(c, n int) sim.Duration {
	tlo, thi := op.chunkTiles(c, n)
	if thi <= tlo {
		return 0
	}
	lo, hi := op.chunkElems(c, n)
	cfg := op.World.Platform().Device(op.PEs[0]).Config()
	rows := float64(hi-lo) / float64(thi-tlo)
	kd := float64(op.maxK())
	kc := KernelEstimate{
		Grid:  thi - tlo,
		Read:  rows*kd*4 + kd*4/float64(op.tiles),
		Write: rows * 4,
		Flops: 2 * rows * kd,
	}
	return cfg.KernelLaunchOverhead + kc.Time(cfg)
}

// EstimateCollectiveChunk predicts RunCollectiveChunk(c, n): the library
// AllReduce over the chunk's element range, priced at the chain
// dispatch cost for non-head chunks.
func (op *GEMVAllReduce) EstimateCollectiveChunk(c, n int) sim.Duration {
	lo, hi := op.chunkElems(c, n)
	if hi <= lo {
		return 0
	}
	return ChunkComm(op.World.Platform(), op.PEs, c).EstimateAllReduce(hi-lo, op.Config.Collective)
}

// EstimateFused predicts RunFused: the persistent kernel's compute
// roofline at fused occupancy overlapped with the partial-tile store
// drain, then the owner reduction and the reduced-tile broadcast.
func (op *GEMVAllReduce) EstimateFused() sim.Duration {
	pl := op.World.Platform()
	cfg := pl.Device(op.PEs[0]).Config()
	sc := op.World.Config()
	occ := op.Config.fusedWGsPerCU(pl.Device(op.PEs[0]))
	kd := float64(op.maxK())
	rows := float64(op.m) / float64(op.tiles)

	comp := KernelEstimate{
		Grid:     op.tiles,
		WGsPerCU: occ,
		Read:     rows * kd * 4,
		Flops:    2 * rows * kd,
		Fixed:    op.Config.Bookkeeping + sc.PutAPIOverhead,
	}
	tComp := comp.Time(cfg)

	// Phase-1 drain: every rank streams each peer-owned tile straight to
	// its owner (tiles/k tiles per destination).
	per := (op.tiles + op.k - 1) / op.k
	dests := make([]fusedDest, op.k)
	for d := 0; d < op.k; d++ {
		dests[d] = fusedDest{msgs: per, bytes: float64(per) * rows * 4}
	}
	tComm := fusedDrainTime(op.World, op.PEs, 0, dests)

	// Owner reduction: read the k staged copies of each owned tile.
	owned := float64(op.m) / float64(op.k)
	red := KernelEstimate{
		Grid:     per,
		WGsPerCU: occ,
		Read:     float64(op.k) * rows * 4,
		Flops:    float64(op.k-1) * rows,
	}
	tRed := red.Time(cfg)

	// Broadcast: each rank pushes its reduced shard to every peer.
	for d := range dests {
		dests[d] = fusedDest{msgs: per, bytes: owned * 4}
	}
	tBcast := fusedDrainTime(op.World, op.PEs, 0, dests)

	t := tComp
	if tComm > t {
		t = tComm
	}
	return cfg.KernelLaunchOverhead + t + tRed + tBcast
}

// SaturationChunks returns the WG-slot saturation point: how many
// chunks the tile grid splits into with every chunk still filling the
// device's resident slots. Floored at 1, capped at MaxChunks.
func (op *GEMVAllReduce) SaturationChunks() int {
	cfg := op.World.Platform().Device(op.PEs[0]).Config()
	return min(max(op.tiles/cfg.MaxWGSlots(), 1), op.MaxChunks())
}

// --- Embedding + All-to-All ---

// avgPooling returns the mean lookups per pooled row of rank 0's set.
func (op *EmbeddingAllToAll) avgPooling() float64 {
	sum, n := 0.0, 0
	for _, bag := range op.Sets[0].Bags {
		if bag.AvgPooling > 0 {
			sum += bag.AvgPooling
		} else if bag.Offsets != nil {
			sum += float64(len(bag.Indices)) / float64(bag.Batch)
		}
		n++
	}
	if n == 0 || sum == 0 {
		return 1
	}
	return sum / float64(n)
}

// EstimateComputeChunk predicts RunComputeChunk(c, n): one pooling
// kernel per table in the chunk's range, each paying its own launch.
func (op *EmbeddingAllToAll) EstimateComputeChunk(c, n int) sim.Duration {
	t0, t1 := op.chunkTables(c, n)
	if t1 <= t0 {
		return 0
	}
	cfg := op.World.Platform().Device(op.PEs[0]).Config()
	rpw := wgRows(op.RowsPerWG)
	pool := op.avgPooling()
	kc := KernelEstimate{
		Grid:   (op.GlobalBatch + rpw - 1) / rpw,
		Lanes:  rpw,
		Gather: pool * float64(rpw*op.D) * 4,
		Write:  float64(rpw*op.D) * 4,
	}
	perTable := cfg.KernelLaunchOverhead + kc.Time(cfg)
	return sim.Duration(t1-t0) * perTable
}

// EstimateCollectiveChunk predicts RunCollectiveChunk(c, n): the sub-block
// All-to-All over the chunk's tables plus the shuffle kernels that
// interleave the received blocks.
func (op *EmbeddingAllToAll) EstimateCollectiveChunk(c, n int) sim.Duration {
	t0, t1 := op.chunkTables(c, n)
	if t1 <= t0 {
		return 0
	}
	cnt := (t1 - t0) * op.L * op.D
	t := ChunkComm(op.World.Platform(), op.PEs, c).EstimateAllToAll(cnt, op.Config.Collective)
	cfg := op.World.Platform().Device(op.PEs[0]).Config()
	blockBytes := float64(op.L*op.D) * 4
	shuffle := KernelEstimate{
		Grid:  op.k * (t1 - t0),
		Read:  blockBytes,
		Write: blockBytes,
	}
	return t + cfg.KernelLaunchOverhead + shuffle.Time(cfg)
}

// EstimateFused predicts RunFused: the persistent pooling kernel
// overlapped with slice puts and zero-copy stores.
func (op *EmbeddingAllToAll) EstimateFused() sim.Duration {
	pl := op.World.Platform()
	cfg := pl.Device(op.PEs[0]).Config()
	sc := op.World.Config()
	rpw := wgRows(op.RowsPerWG)
	pool := op.avgPooling()
	occ := op.Config.fusedWGsPerCU(pl.Device(op.PEs[0]))

	items := op.numSlices() * (op.SliceRows / rpw)
	comp := KernelEstimate{
		Grid:     items,
		WGsPerCU: occ,
		Lanes:    rpw,
		Gather:   pool * float64(rpw*op.D) * 4,
		Fixed:    op.Config.Bookkeeping + sc.FlagAPIOverhead,
	}
	tComp := comp.Time(cfg)

	// Per destination: L/SliceRows slices per table, zero-copy within
	// the node, one put per slice across nodes.
	slicesPerDest := op.T * (op.L / op.SliceRows)
	destBytes := float64(op.T*op.L*op.D) * 4
	dests := make([]fusedDest, op.k)
	for d := 0; d < op.k; d++ {
		dests[d] = fusedDest{msgs: slicesPerDest, bytes: destBytes}
	}
	tComm := fusedDrainTime(op.World, op.PEs, 0, dests)

	t := tComp
	if tComm > t {
		t = tComm
	}
	return cfg.KernelLaunchOverhead + t
}

// SaturationChunks: chunking over tables leaves each per-table kernel's
// grid unchanged, so the WG-slot limit never binds — the full table
// granularity is available and the pipeline recurrence prices the
// added launches.
func (op *EmbeddingAllToAll) SaturationChunks() int { return op.MaxChunks() }

// --- GEMM + All-to-All ---

// chunkTileStats sums the operator tiles of the chunk's row bands. All
// bands of one row index are identical across the k blocks and across
// column tiles (column raggedness only redistributes the N columns), so
// the totals are closed-form per band — no per-tile iteration.
func (op *GEMMAllToAll) chunkTileStats(c, n int) (tiles int, read, flops, write float64) {
	blo, bhi := chunkRange(c, n, op.rowBands())
	g := op.Gemms[0]
	tn := g.TilesN()
	kd, nn := float64(g.K), float64(g.N)
	for band := blo; band < bhi; band++ {
		hi := (band + 1) * g.TileM
		if hi > op.tokens {
			hi = op.tokens
		}
		tm := float64(hi - band*g.TileM)
		// Per destination block: tn tiles of tm rows covering all N
		// columns; A-rows are re-read once per column tile.
		tiles += op.k * tn
		read += float64(op.k) * (float64(tn)*tm + nn) * kd * 4
		flops += float64(op.k) * 2 * tm * nn * kd
		write += float64(op.k) * tm * nn * 4
	}
	return
}

// EstimateComputeChunk predicts RunComputeChunk(c, n): the stock tiled
// GEMM over the chunk's row bands of every destination block.
func (op *GEMMAllToAll) EstimateComputeChunk(c, n int) sim.Duration {
	tiles, read, flops, write := op.chunkTileStats(c, n)
	if tiles == 0 {
		return 0
	}
	cfg := op.World.Platform().Device(op.PEs[0]).Config()
	kc := KernelEstimate{
		Grid:  tiles,
		Read:  read / float64(tiles),
		Write: write / float64(tiles),
		Flops: flops / float64(tiles),
	}
	return cfg.KernelLaunchOverhead + kc.Time(cfg)
}

// EstimateCollectiveChunk predicts RunCollectiveChunk(c, n): the sub-block
// combine All-to-All over the chunk's row band.
func (op *GEMMAllToAll) EstimateCollectiveChunk(c, n int) sim.Duration {
	r0, r1 := op.chunkRows(c, n)
	if r1 <= r0 {
		return 0
	}
	return ChunkComm(op.World.Platform(), op.PEs, c).EstimateAllToAll((r1-r0)*op.Gemms[0].N, op.Config.Collective)
}

// EstimateFused predicts RunFused: the Triton persistent kernel's tile
// roofline at fused occupancy plus the per-tile combine delivery. The
// two do NOT overlap like the flag-gated store drain of the GEMV
// operator: the Triton kernel's CommPutRows charges each tile's
// delivery (fabric store, or NIC channel enqueue under contention)
// inside the issuing WG's serial timeline, so communication extends the
// kernel's critical path — summing comp and drain tracks the simulated
// kernel where max() under-predicted it by 30-50% on every cluster
// shape.
func (op *GEMMAllToAll) EstimateFused() sim.Duration {
	pl := op.World.Platform()
	cfg := pl.Device(op.PEs[0]).Config()
	sc := op.World.Config()
	occ := op.Config.fusedWGsPerCU(pl.Device(op.PEs[0]))
	tiles, read, flops, write := op.chunkTileStats(0, 1)

	comp := KernelEstimate{
		Grid:     tiles,
		WGsPerCU: occ,
		Read:     read / float64(tiles),
		Write:    write / float64(tiles), // register staging for the puts
		Flops:    flops / float64(tiles),
		Fixed:    op.Config.Bookkeeping + sc.PutAPIOverhead,
	}
	tComp := comp.Time(cfg)

	g := op.Gemms[0]
	perDestTiles := op.rowBands() * g.TilesN()
	destBytes := float64(op.tokens*g.N) * 4
	dests := make([]fusedDest, op.k)
	for d := 0; d < op.k; d++ {
		dests[d] = fusedDest{msgs: perDestTiles, bytes: destBytes}
	}
	tComm := fusedDrainTime(op.World, op.PEs, 0, dests)

	return cfg.KernelLaunchOverhead + tComp + tComm
}

// SaturationChunks returns the WG-slot saturation point over the
// operator tile grid.
func (op *GEMMAllToAll) SaturationChunks() int {
	cfg := op.World.Platform().Device(op.PEs[0]).Config()
	return min(max(op.opTiles()/cfg.MaxWGSlots(), 1), op.MaxChunks())
}
