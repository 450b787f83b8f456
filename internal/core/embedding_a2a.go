package core

import (
	"fmt"

	"fusedcc/internal/collectives"
	"fusedcc/internal/gpu"
	"fusedcc/internal/kernels"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
	"fusedcc/internal/trace"
)

// EmbeddingAllToAll is the fused embedding-pooling + All-to-All operator
// (§III-A, Fig 6). Each of k ranks owns T embedding tables and pools
// them over the global batch B; the pooled rows are exchanged so that
// every rank ends up with its local batch shard L = B/k of every table,
// laid out {L, k*T*D} — exactly what DLRM's interaction operator
// consumes, with no shuffle kernel.
//
// The fused execution is one persistent kernel per rank: logical WGs
// (one per SliceRows/RowsPerWG fraction of a slice) pool rows; the last
// WG to finish a slice — detected through the per-slice WG_Done bitmask
// — communicates it. Cross-node slices travel as one non-blocking put
// followed by an ordered sliceRdy flag; same-node slices are written
// with zero-copy stores directly into the destination layout and only
// the flag is sent. Communication-aware scheduling orders remote slices
// first.
type EmbeddingAllToAll struct {
	World       *shmem.World
	PEs         []int
	Sets        []*kernels.EmbeddingSet
	GlobalBatch int
	// SliceRows is the communication granularity: pooled rows per slice.
	SliceRows int
	// RowsPerWG is the pooled rows one logical WG computes (the paper's
	// kernels use 1; benchmarks coarsen it to bound simulation cost —
	// timing is unchanged because the cost model is linear in rows).
	RowsPerWG int
	Config    Config

	// Out is the operator output, {L, k*T*D} row-major per PE.
	Out *shmem.Symm

	k, T, D, L int
	send       *shmem.Symm
	recv       *shmem.Symm // lazy: baseline receive staging
	rowStride  int
}

// NewEmbeddingAllToAll validates shapes and allocates the output and
// staging symmetric buffers.
func NewEmbeddingAllToAll(w *shmem.World, pes []int, sets []*kernels.EmbeddingSet, globalBatch, sliceRows int, cfg Config) (*EmbeddingAllToAll, error) {
	op := &EmbeddingAllToAll{
		World: w, PEs: pes, Sets: sets,
		GlobalBatch: globalBatch, SliceRows: sliceRows, RowsPerWG: 1, Config: cfg,
	}
	op.k = len(pes)
	if op.k == 0 || len(sets) != op.k {
		return nil, fmt.Errorf("core: %d PEs with %d embedding sets", op.k, len(sets))
	}
	for s, set := range sets {
		if err := set.Validate(); err != nil {
			return nil, fmt.Errorf("core: rank %d: %w", s, err)
		}
		if set.Batch() != globalBatch {
			return nil, fmt.Errorf("core: rank %d batch %d != global %d", s, set.Batch(), globalBatch)
		}
		if set.Tables() != sets[0].Tables() || set.Dim() != sets[0].Dim() {
			return nil, fmt.Errorf("core: rank %d table shape differs", s)
		}
	}
	op.T, op.D = sets[0].Tables(), sets[0].Dim()
	if globalBatch%op.k != 0 {
		return nil, fmt.Errorf("core: global batch %d not divisible by %d ranks", globalBatch, op.k)
	}
	op.L = globalBatch / op.k
	if sliceRows <= 0 || op.L%sliceRows != 0 {
		return nil, fmt.Errorf("core: slice rows %d must divide local batch %d", sliceRows, op.L)
	}
	op.rowStride = op.k * op.T * op.D
	op.Out = w.Malloc(op.L * op.rowStride)
	op.send = w.Malloc(op.T * globalBatch * op.D)
	return op, nil
}

// wgRows resolves a RowsPerWG coarsening: zero or negative means one
// pooled row per logical WG.
func wgRows(rowsPerWG int) int { return max(rowsPerWG, 1) }

// sliceWGRows is wgRows for a fused run over slices of sliceRows rows:
// it panics, naming both values, unless the coarsening divides a slice.
func sliceWGRows(rowsPerWG, sliceRows int) int {
	rows := wgRows(rowsPerWG)
	if sliceRows%rows != 0 {
		panic(fmt.Sprintf("core: RowsPerWG %d must divide SliceRows %d", rows, sliceRows))
	}
	return rows
}

// slicesPerTable returns B/S, the slice count per table per rank.
func (op *EmbeddingAllToAll) slicesPerTable() int { return op.GlobalBatch / op.SliceRows }

// numSlices returns the per-rank slice count.
func (op *EmbeddingAllToAll) numSlices() int { return op.T * op.slicesPerTable() }

// flagsPerPE returns the sliceRdy flag count per PE: one per incoming
// (and locally produced) slice.
func (op *EmbeddingAllToAll) flagsPerPE() int { return op.k * op.T * (op.L / op.SliceRows) }

// sliceDst returns the destination rank of slice sl (slices are S
// consecutive batch rows, so destination is constant within a slice).
func (op *EmbeddingAllToAll) sliceDst(sl int) int {
	batchSlice := sl % op.slicesPerTable()
	return batchSlice * op.SliceRows / op.L
}

// sliceTable returns the local table index of slice sl.
func (op *EmbeddingAllToAll) sliceTable(sl int) int { return sl / op.slicesPerTable() }

// sliceBatch returns the first global batch row of slice sl.
func (op *EmbeddingAllToAll) sliceBatch(sl int) int {
	return (sl % op.slicesPerTable()) * op.SliceRows
}

// flagIndex returns the sliceRdy index at the destination for a slice
// produced by rank src, table t, landing rows [b0, b0+S) of the
// destination's local batch.
func (op *EmbeddingAllToAll) flagIndex(src, t, b0, dst int) int {
	localSlice := (b0 - dst*op.L) / op.SliceRows
	return (src*op.T+t)*(op.L/op.SliceRows) + localSlice
}

// scheduleSlices returns the slice execution order for rank s.
func (op *EmbeddingAllToAll) scheduleSlices(s int) []int {
	order := make([]int, 0, op.numSlices())
	if op.Config.Schedule == Oblivious {
		return op.obliviousOrder()
	}
	// Comm-aware: destinations by descending link cost (cross-node NIC
	// slices first, then fabric peers, self last); table-major within
	// each destination.
	for _, d := range commAwareDestOrder(op.World.Platform(), op.PEs, s) {
		for sl := 0; sl < op.numSlices(); sl++ {
			if op.sliceDst(sl) == d {
				order = append(order, sl)
			}
		}
	}
	return order
}

// obliviousOrder mirrors the hardware dispatcher's WG(0,0,0)-first
// enumeration in the paper's kernels (Fig 6): batch-slice major, tables
// fastest — so a rank whose first batch shard is its own computes every
// local slice before any remote one.
func (op *EmbeddingAllToAll) obliviousOrder() []int {
	order := make([]int, 0, op.numSlices())
	for bs := 0; bs < op.slicesPerTable(); bs++ {
		for t := 0; t < op.T; t++ {
			order = append(order, t*op.slicesPerTable()+bs)
		}
	}
	return order
}

// dstOffset returns the element offset in Out on the destination for
// (global table gt, destination-local row lr).
func (op *EmbeddingAllToAll) dstOffset(gt, lr int) int {
	return lr*op.rowStride + gt*op.D
}

// RunFused executes the fused operator: one persistent kernel per rank,
// all ranks concurrent. It blocks the coordinator until every rank's
// kernel (including its sliceRdy tail wait) retires, and returns the
// run report.
func (op *EmbeddingAllToAll) RunFused(p *sim.Proc) Report {
	w := op.World
	pl := w.Platform()
	e := pl.E
	rep := Report{Start: e.Now(), PEEnd: make([]sim.Time, op.k)}
	sliceRdy := w.MallocFlags(op.flagsPerPE())
	rowsPerWG := sliceWGRows(op.RowsPerWG, op.SliceRows)
	itemsPerSlice := op.SliceRows / rowsPerWG

	// Simulated persistent-WG count (lane-coarsened), identical on all
	// ranks: devices share one configuration.
	dev0 := pl.Device(op.PEs[0])
	phys := dev0.Config().CUs * op.Config.fusedWGsPerCU(dev0) / rowsPerWG
	if phys < 1 {
		phys = 1
	}
	if t := op.numSlices() * itemsPerSlice; phys > t {
		phys = t
	}
	// storeDone[dst][src*phys+w]: same-node source WG w finished (and
	// fenced) all its zero-copy stores into dst.
	storeDone := w.MallocFlags(op.k * phys)

	p.ForkJoin(op.k, "fused.emb", func(rp *sim.Proc, s int) {
		op.runRank(rp, s, pl.Device(op.PEs[s]), sliceRdy, storeDone, itemsPerSlice, rowsPerWG, phys, &rep)
		rep.PEEnd[s] = rp.Now()
	})
	rep.End = e.Now()
	return rep
}

// runRank launches rank s's persistent kernel and blocks until it ends.
//
// Synchronization follows the paper: cross-node slices are published
// with a put + fence + sliceRdy flag at slice granularity (§III-A);
// same-node destinations receive thread-granular zero-copy stores, and
// each physical WG raises one fenced storeDone flag per peer after its
// last store there (§III-B's "one ready flag per peer GPU"), avoiding a
// fence per slice.
func (op *EmbeddingAllToAll) runRank(rp *sim.Proc, s int, dev *gpu.Device, sliceRdy, storeDone *shmem.Flags, itemsPerSlice, rowsPerWG, phys int, rep *Report) {
	r := &embRank{
		op: op, s: s, slices: op.scheduleSlices(s), trackers: make([]*Bitmask, op.numSlices()),
		itemsPerSlice: itemsPerSlice, rowsPerWG: rowsPerWG, phys: phys,
		functional: op.Out.On(op.PEs[s]).Functional(),
		tl:         op.Config.Timeline,
		sliceRdy:   sliceRdy, storeDone: storeDone, rep: rep,
	}
	for i := range r.trackers {
		r.trackers[i] = NewBitmask(itemsPerSlice)
	}
	r.totalItems = len(r.slices) * itemsPerSlice
	r.tracePE = r.tl.Enabled() && s == 0
	dev.Launch(rp, gpu.Kernel{
		Name:     fmt.Sprintf("fused.emb.%d", s),
		PhysWGs:  phys,
		WGsPerCU: op.Config.fusedWGsPerCU(dev),
		Lanes:    rowsPerWG,
		Body:     r.start,
	})
}

// embRank is what every workgroup of rank s's fused kernel shares: the
// slice schedule and the per-slice WG_Done bitmasks.
type embRank struct {
	op                             *EmbeddingAllToAll
	s                              int
	slices                         []int
	trackers                       []*Bitmask
	totalItems                     int
	itemsPerSlice, rowsPerWG, phys int
	functional, tracePE            bool
	tl                             *trace.Timeline
	sliceRdy, storeDone            *shmem.Flags
	rep                            *Report
}

// crossNodeTo reports whether rank s's slices for rank d travel as puts
// (another node, or zero-copy disabled) rather than native stores.
func (r *embRank) crossNodeTo(d int) bool {
	op := r.op
	return !op.World.Platform().SameNode(op.PEs[r.s], op.PEs[d]) ||
		(op.Config.DisableZeroCopy && d != r.s)
}

// embWG is one physical workgroup of a rank's fused kernel. Each step
// finishes the item pooled in the step before — the WG_Done bit is set
// when its bookkeeping completes, so the last finisher of a slice is
// found at that instant — and pools the next item; once the items are
// done, each step waits for one source rank's slices of the output.
type embWG struct {
	*embRank
	wg        *gpu.WG
	scratch   []float32
	remaining []int // per same-node destination: items not yet stored
	idx       int   // the next item to pool
	pending   bool  // the item at idx-phys is pooled, not yet finished
	src       int   // the next source rank the tail waits for
	// Timeline stamps (rank 0 only): the pending item's pooling start
	// and the tail wait's start.
	start, waitStart sim.Time
}

// start is the kernel body: it counts workgroup wg's same-node items,
// raises the flags of the peers it stores nothing to, and records its
// first step.
func (r *embRank) start(wg *gpu.WG) func() bool {
	op := r.op
	x := &embWG{embRank: r, wg: wg, idx: wg.PhysID}
	if r.functional {
		x.scratch = make([]float32, r.rowsPerWG*op.D)
	}
	// Outstanding same-node items per destination, for the
	// one-flag-per-peer protocol.
	x.remaining = make([]int, op.k)
	for idx := wg.PhysID; idx < r.totalItems; idx += r.phys {
		if d := op.sliceDst(r.slices[idx/r.itemsPerSlice]); !r.crossNodeTo(d) {
			x.remaining[d]++
		}
	}
	for d := 0; d < op.k; d++ {
		if !r.crossNodeTo(d) && x.remaining[d] == 0 {
			x.raise(d)
		}
	}
	x.step()
	return x.step
}

// raise fences this workgroup's stores to d, then flags them.
func (x *embWG) raise(d int) {
	x.op.World.StoreRemoteFlag(x.wg, x.op.PEs[d], x.storeDone, x.s*x.phys+x.wg.PhysID, 1)
}

// step records the workgroup's next step (see embWG).
func (x *embWG) step() bool {
	if x.pending {
		x.finish(x.idx - x.phys)
	}
	if x.pending = x.idx < x.totalItems; x.pending {
		x.pool(x.idx)
		x.idx += x.phys
		return true
	}
	if x.src == x.op.k {
		return false
	}
	x.tail(x.src)
	x.src++
	return true
}

// item returns item idx's slice, index within the slice, table, first
// global batch row and destination rank.
func (x *embWG) item(idx int) (sl, within, t, b0, d int) {
	op := x.op
	sl = x.slices[idx/x.itemsPerSlice]
	within = idx % x.itemsPerSlice
	t = op.sliceTable(sl)
	b0 = op.sliceBatch(sl) + within*x.rowsPerWG
	return sl, within, t, b0, op.sliceDst(sl)
}

// pool records item idx's pooling and its bookkeeping.
func (x *embWG) pool(idx int) {
	op, wg := x.op, x.wg
	sl, _, t, b0, d := x.item(idx)
	gt := x.s*op.T + t
	bag := op.Sets[x.s].Bags[t]
	if x.tracePE {
		wg.Then(func() { x.start = wg.Now() })
	}
	if x.crossNodeTo(d) {
		// Pool into the staging buffer; the slice travels later as
		// one put.
		bag.ComputeRows(wg, b0, x.rowsPerWG, op.send.On(op.PEs[x.s]), (t*op.GlobalBatch+b0)*op.D)
	} else {
		// Zero-copy: pool in registers, store directly into the
		// destination layout (local rows are plain stores into our
		// own Out).
		bag.GatherRows(wg, b0, x.rowsPerWG, x.scratch)
		op.World.StoreValuesRows(wg, op.PEs[d], op.Out, op.dstOffset(gt, b0-d*op.L), op.rowStride, x.scratch, x.rowsPerWG, op.D)
	}
	if x.tracePE {
		wg.Then(func() { x.tl.Add(wg.PhysID, trace.Compute, x.start, wg.Now(), fmt.Sprintf("slice%d", sl)) })
	}
	wg.Busy(op.Config.Bookkeeping)
}

// finish sets item idx's WG_Done bit, now that its bookkeeping has
// completed, and records what follows: the last finisher of a
// cross-node slice communicates it; a same-node item counts toward its
// destination's storeDone flag.
func (x *embWG) finish(idx int) {
	op, wg := x.op, x.wg
	sl, within, t, _, d := x.item(idx)
	last := x.trackers[sl].Set(within)
	if !x.crossNodeTo(d) {
		if d != x.s {
			x.rep.RemotePuts++
			x.rep.RemoteBytes += float64(x.rowsPerWG*op.D) * 4
		}
		if x.tracePE && last && d == x.s {
			x.tl.Add(wg.PhysID, trace.LocalDone, wg.Now(), wg.Now(), fmt.Sprintf("slice%d", sl))
		}
		x.remaining[d]--
		if x.remaining[d] == 0 {
			x.raise(d)
		}
		return
	}
	if !last {
		return
	}
	// Last finisher communicates the slice.
	dstPE := op.PEs[d]
	gt := x.s*op.T + t
	sb := op.sliceBatch(sl)
	op.World.PutNbiRows(wg, dstPE, op.Out,
		op.dstOffset(gt, sb-d*op.L), op.rowStride,
		op.send.On(op.PEs[x.s]), (t*op.GlobalBatch+sb)*op.D, op.D,
		op.SliceRows, op.D)
	op.World.Fence(wg)
	op.World.PutFlagNbi(wg, dstPE, x.sliceRdy, op.flagIndex(x.s, t, sb, d), 1)
	x.rep.RemotePuts++
	x.rep.RemoteBytes += float64(op.SliceRows*op.D) * 4
	if x.tracePE {
		wg.Then(func() { x.tl.Add(wg.PhysID, trace.PutIssue, wg.Now(), wg.Now(), fmt.Sprintf("slice%d->%d", sl, d)) })
	}
}

// tail records source rank src's part of the wait that keeps the
// kernel from retiring before every slice of the output is ready.
// Cross-node producers are tracked by sliceRdy flags (slice
// granularity), same-node producers by their per-WG storeDone flags;
// each persistent WG polls a distinct subset of both.
func (x *embWG) tail(src int) {
	op, wg := x.op, x.wg
	if x.tracePE && src == 0 {
		wg.Then(func() { x.waitStart = wg.Now() })
	}
	if !op.World.Platform().SameNode(op.PEs[src], op.PEs[x.s]) ||
		(op.Config.DisableZeroCopy && src != x.s) {
		lSlices := op.L / op.SliceRows
		base := src * op.T * lSlices
		for f := wg.PhysID; f < op.T*lSlices; f += x.phys {
			x.sliceRdy.WaitGE(wg, base+f, 1)
		}
	} else {
		for f := wg.PhysID; f < x.phys; f += x.phys {
			x.storeDone.WaitGE(wg, src*x.phys+f, 1)
		}
	}
	if x.tracePE && src == op.k-1 {
		wg.Then(func() {
			if wg.Now() > x.waitStart {
				x.tl.Add(wg.PhysID, trace.WaitSpan, x.waitStart, wg.Now(), "sliceRdy")
			}
		})
	}
}

// RunKernelSplit executes the decomposition alternative of Wang et
// al. [58] that the paper argues against (§IV-A, §V): the batch is cut
// into shards, each shard runs as its own embedding kernel, and shard
// i's All-to-All overlaps shard i+1's compute on a second stream. Every
// shard pays kernel-launch overhead and the smaller grids underutilize
// the device — the "16384 additional kernel launches" cost the fused
// persistent kernel avoids.
func (op *EmbeddingAllToAll) RunKernelSplit(p *sim.Proc, shards int) Report {
	w := op.World
	pl := w.Platform()
	e := pl.E
	start := e.Now()
	if shards < 1 || op.L%shards != 0 {
		panic(fmt.Sprintf("core: %d shards must divide local batch %d", shards, op.L))
	}
	rowsPerWG := wgRows(op.RowsPerWG)
	cnt := op.T * op.L * op.D
	recv := w.Malloc(op.k * cnt)
	shardBatch := op.GlobalBatch / shards
	comm := collectives.New(pl, op.PEs)

	// computeShard runs one embedding kernel per rank covering all
	// tables for the shard's batch rows, writing the bucketized layout.
	computeShard := func(cp *sim.Proc, sh int) {
		cp.ForkJoin(op.k, "split.emb", func(rp *sim.Proc, s int) {
			pe := op.PEs[s]
			sendBuf := op.send.On(pe)
			rows := op.T * shardBatch
			lanes := rowsPerWG
			if shardBatch%lanes != 0 {
				lanes = 1 // keep groups within one table/destination
			}
			grid := (rows + lanes - 1) / lanes
			pl.Device(pe).LaunchGridLanes(rp, "emb.shard", grid, 0, lanes, func(wgc *gpu.WG, l int) {
				item := l * lanes
				t := item / shardBatch
				b0 := sh*shardBatch + item%shardBatch
				d := b0 / op.L
				off := d*cnt + t*op.L*op.D + (b0-d*op.L)*op.D
				op.Sets[s].Bags[t].ComputeRows(wgc, b0, lanes, sendBuf, off)
			})
		})
	}

	// Pipeline: compute stream runs shards back to back; the comm
	// stream issues shard i's exchange while shard i+1 computes.
	ready := sim.NewFlag(e)
	commDone := sim.NewFlag(e)
	e.Go("split.comm", func(cp *sim.Proc) {
		for sh := 0; sh < shards; sh++ {
			ready.WaitGE(cp, int64(sh+1))
			comm.AllToAll(cp, op.send, recv, cnt/shards, op.Config.Collective)
		}
		commDone.Set(1)
	})
	for sh := 0; sh < shards; sh++ {
		computeShard(p, sh)
		ready.Add(1)
	}
	commDone.WaitGE(p, 1)
	return SpanReport(start, e.Now(), op.k)
}

// recvBuf lazily allocates the baseline receive staging buffer.
func (op *EmbeddingAllToAll) recvBuf() *shmem.Symm {
	if op.recv == nil {
		op.recv = op.World.Malloc(op.k * op.T * op.L * op.D)
	}
	return op.recv
}

// MaxChunks returns the finest pipelining granularity the operator
// supports: one table per chunk (tables are the contiguous unit of the
// bucketized send layout), never less than 1.
func (op *EmbeddingAllToAll) MaxChunks() int {
	if op.T < 1 {
		return 1
	}
	return op.T
}

// chunkTables returns the table range [t0,t1) of chunk c of n.
func (op *EmbeddingAllToAll) chunkTables(c, n int) (t0, t1 int) {
	return chunkRange(c, n, op.T)
}

// RunComputeChunk executes chunk c of n of the compute half: per-table
// embedding kernels on every rank concurrently, for this chunk's table
// range only, writing the bucketized send buffer. The n chunks together
// pool every table exactly once into the same staging, so chunked
// execution stays bit-exact with eager.
func (op *EmbeddingAllToAll) RunComputeChunk(p *sim.Proc, c, n int) Report {
	pl := op.World.Platform()
	e := pl.E
	t0, t1 := op.chunkTables(c, n)
	if t1 <= t0 {
		return SpanReport(e.Now(), e.Now(), op.k)
	}
	rep := Report{Start: e.Now(), PEEnd: make([]sim.Time, op.k)}
	cnt := op.T * op.L * op.D
	rowsPerWG := wgRows(op.RowsPerWG)
	p.ForkJoin(op.k, "base.emb", func(rp *sim.Proc, s int) {
		pe := op.PEs[s]
		dev := pl.Device(pe)
		sendBuf := op.send.On(pe)
		for t := t0; t < t1; t++ {
			bag := op.Sets[s].Bags[t]
			grid := (op.GlobalBatch + rowsPerWG - 1) / rowsPerWG
			dev.LaunchGridLanes(rp, "embeddingbag", grid, 0, rowsPerWG, func(wg *gpu.WG, l int) {
				b0 := l * rowsPerWG
				n := rowsPerWG
				if b0+n > op.GlobalBatch {
					n = op.GlobalBatch - b0
				}
				// Row groups never straddle a destination because
				// RowsPerWG divides SliceRows divides the local
				// batch, so the bucketized rows are contiguous.
				d := b0 / op.L
				off := d*cnt + t*op.L*op.D + (b0-d*op.L)*op.D
				bag.ComputeRows(wg, b0, n, sendBuf, off)
			})
		}
		rep.PEEnd[s] = rp.Now()
	})
	rep.End = e.Now()
	return rep
}

// RunCollectiveChunk executes chunk c of n of the communication half:
// the RCCL-style sub-block All-to-All moving only this chunk's table
// range of every destination block, plus the shuffle kernels that
// interleave the received [src][T][L][D] blocks of those tables into
// the {L, k*T*D} output layout (the rearrangement the fused operator's
// point-to-point layout avoids). Chunk table ranges are disjoint and
// cover all tables, so the n chunked exchanges move and interleave
// exactly what the single full exchange would.
func (op *EmbeddingAllToAll) RunCollectiveChunk(p *sim.Proc, c, n int) Report {
	pl := op.World.Platform()
	e := pl.E
	t0, t1 := op.chunkTables(c, n)
	if t1 <= t0 {
		return SpanReport(e.Now(), e.Now(), op.k)
	}
	rep := Report{Start: e.Now(), PEEnd: make([]sim.Time, op.k)}
	cnt := op.T * op.L * op.D
	recv := op.recvBuf()

	ChunkComm(pl, op.PEs, c).AllToAllSub(p, op.send, recv, cnt, t0*op.L*op.D, (t1-t0)*op.L*op.D, op.Config.Collective)

	p.ForkJoin(op.k, "base.shuffle", func(rp *sim.Proc, s int) {
		pe := op.PEs[s]
		out := op.Out.On(pe)
		rbuf := recv.On(pe)
		tables := t1 - t0
		grid := op.k * tables
		pl.Device(pe).LaunchGrid(rp, "shuffle", grid, 0, func(wg *gpu.WG, l int) {
			src, t := l/tables, t0+l%tables
			blockBytes := float64(op.L*op.D) * 4
			wg.Read(blockBytes)
			wg.Write(blockBytes)
			if out.Functional() {
				wg.Then(func() {
					for lr := 0; lr < op.L; lr++ {
						out.CopyWithin(op.dstOffset(src*op.T+t, lr), rbuf, src*cnt+t*op.L*op.D+lr*op.D, op.D)
					}
				})
			}
		})
		rep.PEEnd[s] = rp.Now()
	})
	rep.End = e.Now()
	return rep
}

// RunBaseline executes the bulk-synchronous comparator: per-table
// embedding kernels writing a bucketized send buffer, an RCCL-style
// All-to-All, and a shuffle kernel that interleaves the received blocks
// into the {L, k*T*D} layout (§IV-A baseline).
func (op *EmbeddingAllToAll) RunBaseline(p *sim.Proc) Report { return runBaseline(p, op) }

// Output returns the operator output, {L, k*T*D} row-major per PE.
func (op *EmbeddingAllToAll) Output() *shmem.Symm { return op.Out }
