// Package core implements the paper's primary contribution: fused
// computation-collective operators. A fused operator is one persistent
// GPU kernel per participating GPU whose workgroups (WGs) compute output
// fragments ("slices" of pooled embeddings, GEMV/GEMM output tiles) and
// communicate each fragment to its destination GPU the moment it is
// complete — with GPU-initiated RDMA puts across nodes and zero-copy
// native stores within a node — while sibling WGs keep computing.
//
// The three operators of the paper are provided:
//
//   - EmbeddingAllToAll — embedding pooling fused with the DLRM
//     All-to-All (scale-out via ordered non-blocking puts, scale-up via
//     zero-copy stores), with per-slice WG_Done bitmasks, sliceRdy
//     flags, and communication-aware logical-WG scheduling (§III-A).
//   - GEMVAllReduce — matrix-vector product fused with a two-phase
//     direct AllReduce for fully-connected GPUs, zero-copy (§III-B).
//   - GEMMAllToAll — tiled matmul fused with the MoE combine
//     All-to-All; the kernel itself is authored in the Triton-like tile
//     DSL (package triton) to mirror the paper's framework integration.
//
// Each operator has a bulk-synchronous Baseline* counterpart built from
// the same compute kernels plus the RCCL-like collectives package, so
// experiments compare identical work under the two execution models and
// tests verify both produce identical results.
package core

import (
	"fusedcc/internal/collectives"
	"fusedcc/internal/gpu"
	"fusedcc/internal/platform"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
	"fusedcc/internal/trace"
)

// Schedule selects the logical-WG execution order of a fused kernel.
type Schedule int

const (
	// CommAware runs logical WGs that produce remote slices before
	// those producing local ones, maximizing communication overlap
	// (§III-A "Communication-aware Scheduling").
	CommAware Schedule = iota
	// Oblivious runs logical WGs in natural index order, the baseline
	// scheduling of Fig 14.
	Oblivious
)

func (s Schedule) String() string {
	if s == CommAware {
		return "comm-aware"
	}
	return "oblivious"
}

// Config tunes the fused-kernel runtime.
type Config struct {
	// WGsPerCU is the fused kernel's occupancy. Zero selects the
	// device maximum minus one slot: the register cost of the
	// GPU-initiated networking API (the paper reports 12.5% lower
	// occupancy on an 8-slot device, §III-C).
	WGsPerCU int
	// Bookkeeping is the per-logical-WG cost of the WG_Done bitmask
	// update via cross-lane reduction (§III-C).
	Bookkeeping sim.Duration
	// Schedule picks the logical-WG order.
	Schedule Schedule
	// DisableZeroCopy forces same-node communication through the
	// staging-buffer + DMA-channel path instead of direct peer stores —
	// the ablation isolating the zero-copy optimization (§III-B).
	DisableZeroCopy bool
	// Timeline, when non-nil and enabled, records per-WG spans for the
	// Fig 11 profile.
	Timeline *trace.Timeline
	// Collective selects the algorithm of the baseline collectives
	// (RunBaseline / RunKernelSplit). The zero value, collectives.Auto,
	// picks flat or hierarchical from the communicator's node layout.
	Collective collectives.Algo
}

// DefaultConfig returns the runtime defaults used in the evaluation.
func DefaultConfig() Config {
	return Config{Bookkeeping: 40 * sim.Nanosecond, Schedule: CommAware}
}

// fusedWGsPerCU resolves the occupancy for a device.
func (c Config) fusedWGsPerCU(dev *gpu.Device) int {
	if c.WGsPerCU > 0 {
		return min(c.WGsPerCU, dev.Config().MaxWGSlotsPerCU)
	}
	o := dev.Config().MaxWGSlotsPerCU - 1
	if o < 1 {
		o = 1
	}
	return o
}

// commAwareDestOrder ranks rank s's destinations by descending link
// cost: cross-node destinations first (their slices ride the slow NIC,
// so their puts must start earliest), then same-node fabric peers, and
// the rank itself last — nearest-offset order within each tier. On the
// paper's homogeneous shapes (pure scale-up or pure scale-out) a tier is
// empty and this reduces to the remote-first order of §III-A.
func commAwareDestOrder(pl *platform.Platform, pes []int, s int) []int {
	k := len(pes)
	order := make([]int, 0, k)
	var local []int
	for off := 1; off < k; off++ {
		d := (s + off) % k
		if pl.SameNode(pes[s], pes[d]) {
			local = append(local, d)
		} else {
			order = append(order, d)
		}
	}
	order = append(order, local...)
	return append(order, s)
}

// Bitmask is the per-slice WG_Done completion mask. Each workgroup that
// finishes its share of a slice sets its bit and learns whether it was
// the last — the cross-lane reduction trick that avoids an inter-WG
// barrier (§III-C).
type Bitmask struct {
	words []uint64
	n     int
	set   int
}

// NewBitmask returns a mask over n workgroups.
func NewBitmask(n int) *Bitmask {
	if n <= 0 {
		panic("core: bitmask needs n > 0")
	}
	return &Bitmask{words: make([]uint64, (n+63)/64), n: n}
}

// Set marks bit i and reports whether every bit is now set (i.e. the
// caller is the last finisher). Setting a bit twice panics — it would
// mean two WGs claimed the same work item.
func (b *Bitmask) Set(i int) bool {
	w, bit := i/64, uint(i%64)
	if b.words[w]&(1<<bit) != 0 {
		panic("core: WG_Done bit set twice")
	}
	b.words[w] |= 1 << bit
	b.set++
	return b.set == b.n
}

// Done reports whether all bits are set.
func (b *Bitmask) Done() bool { return b.set == b.n }

// Report captures an operator run for the experiment harness.
type Report struct {
	// Start and End bound the whole operator (max over PEs).
	Start, End sim.Time
	// PEEnd is the per-rank completion time — the skew input of Fig 14.
	PEEnd []sim.Time
	// RemotePuts counts remote communication operations issued.
	RemotePuts int
	// RemoteBytes counts bytes sent to other PEs.
	RemoteBytes float64
}

// Duration returns the operator makespan.
func (r Report) Duration() sim.Duration { return r.End.Sub(r.Start) }

// Skew returns (max PE end - min PE end) / makespan, the Fig 14 metric.
func (r Report) Skew() float64 {
	if len(r.PEEnd) == 0 || r.End == r.Start {
		return 0
	}
	lo, hi := r.PEEnd[0], r.PEEnd[0]
	for _, t := range r.PEEnd {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return float64(hi-lo) / float64(r.End.Sub(r.Start))
}

// Pair is the one surface every fused computation-collective operator
// presents to the graph compiler and the framework registry: the two
// bulk-synchronous phases, split into chunks for pipelining, the fused
// persistent kernel, the analytic cost model that prices each form, and
// the chunk-range metadata that proves cross-pair dataflow. The
// compiler prices, chunks, and fuses through this interface alone, so
// a new operator joins every execution mode by implementing it.
type Pair interface {
	ChunkRanger
	// RunComputeChunk runs chunk c of n of the compute phase: the
	// conventional kernels staging their output where the collective
	// reads it. Chunk 0 of 1 is the whole phase, and the n chunks
	// together do exactly its work, so chunked runs stay bit-exact.
	RunComputeChunk(p *sim.Proc, c, n int) Report
	// RunCollectiveChunk runs chunk c of n of the collective phase: the
	// library collective over exactly what RunComputeChunk(c, n)
	// staged. Non-head chunks ride the chunk chain (ChunkDispatchOverhead
	// instead of a fresh launch and rendezvous).
	RunCollectiveChunk(p *sim.Proc, c, n int) Report
	// RunFused runs the fused persistent kernel on every rank.
	RunFused(p *sim.Proc) Report
	// RunBaseline runs the bulk-synchronous comparator: the whole
	// compute phase, then the whole collective phase.
	RunBaseline(p *sim.Proc) Report
	// MaxChunks is the finest chunk granularity, never less than 1.
	MaxChunks() int
	// SaturationChunks is the deepest pipeline whose chunks still fill
	// the device's resident WG slots, in [1, MaxChunks].
	SaturationChunks() int
	// EstimateComputeChunk, EstimateCollectiveChunk, and EstimateFused
	// predict the durations of the matching Run methods.
	EstimateComputeChunk(c, n int) sim.Duration
	EstimateCollectiveChunk(c, n int) sim.Duration
	EstimateFused() sim.Duration
	// Output is the symmetric buffer holding the operator's result once
	// its collective (or fused) phase has run.
	Output() *shmem.Symm
}

// runBaseline is the one bulk-synchronous body every pair's
// RunBaseline shares: the whole compute phase, then the whole
// collective phase, each rank credited its collective-phase end.
func runBaseline(p *sim.Proc, op Pair) Report {
	rep := op.RunComputeChunk(p, 0, 1)
	ex := op.RunCollectiveChunk(p, 0, 1)
	rep.End = ex.End
	copy(rep.PEEnd, ex.PEEnd)
	return rep
}

// chunkRange returns the balanced split [lo,hi) of units work items
// into n chunks at index c (empty when n exceeds units) — the shared
// chunk arithmetic of every pair operator's phase entry points.
func chunkRange(c, n, units int) (lo, hi int) {
	return c * units / n, (c + 1) * units / n
}

// SpanReport returns the report of a phase over k ranks that every
// rank finishes together: a library collective, which occupies each
// rank until it completes, or an empty chunk (start == end).
func SpanReport(start, end sim.Time, k int) Report {
	rep := Report{Start: start, End: end, PEEnd: make([]sim.Time, k)}
	for s := range rep.PEEnd {
		rep.PEEnd[s] = end
	}
	return rep
}

// ChunkDispatchOverhead is the per-rank cost of dispatching a non-head
// chunk of a chunk-scheduled collective chain: the chain's persistent
// kernel polls the chunk-ready flag and proceeds — no rendezvous, no
// fresh launch.
const ChunkDispatchOverhead = 1 * sim.Microsecond

// ChunkComm builds the communicator of chunk c of a chunked collective
// chain, for running the chunk and for estimating it alike. The first
// chunk pays the full library cost (kernel launch + rendezvous); later
// chunks ride the persistent chain that launch established and pay only
// a flag-poll dispatch — the way GC3-style chunk-scheduled collectives
// and CoCoNet's emitted communication plans work, one program per chain
// rather than n independent library calls. Without this, chunked
// pipelining would re-pay the launch + rendezvous floor n times and
// could never beat the bulk-synchronous baseline it exists to overlap.
func ChunkComm(pl *platform.Platform, pes []int, c int) *collectives.Comm {
	comm := collectives.New(pl, pes)
	if c > 0 {
		comm.SetProtocolOverhead(0)
		comm.SetLaunchOverhead(ChunkDispatchOverhead)
	}
	return comm
}
