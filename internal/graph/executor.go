package graph

import (
	"fmt"

	"fusedcc/internal/core"
	"fusedcc/internal/gpu"
	"fusedcc/internal/sim"
)

// Mode selects the execution model of a graph run. Every mode but
// Eager is a policy over one decision space — {eager | fuse |
// pipeline@K | wavefront@K} per matched compute→collective pair — that
// builds a plan the executor lowers before running.
type Mode int

const (
	// Eager runs the graph as built: compute nodes as conventional
	// kernels, collective nodes as library collectives — the bulk-
	// synchronous baseline.
	Eager Mode = iota
	// Compiled fuses every matched pair, so it executes as a fused
	// persistent kernel (and swaps gradient exchanges for the fused
	// exchange).
	Compiled
	// Pipelined chunks every matched pair at depth K, so it executes as
	// K chunked sub-node chains whose collectives overlap later chunks'
	// compute on the per-GPU streams — the software-pipelining
	// alternative to fusion (CoCoNet/GC3 style).
	Pipelined
	// Auto prices every form with the analytic cost model: each pair
	// executes in whichever form is predicted fastest — fused, pipelined
	// at a per-pair chunk depth, eager, or a cross-pair wavefront —
	// mixed freely within one graph (quasi-static scheduling in the
	// CoCoNet/GC3 tradition).
	Auto
	// Wavefront chunks pairs, rowwise per-rank nodes, and row-structured
	// exchanges at depth K, and provably aligned layer-boundary joins
	// become chunk-granular — a deep stack executes as a wavefront
	// (layer l+1's chunk c waits only for layer l's chunk c) instead of
	// draining the pipeline at every layer boundary.
	Wavefront
)

func (m Mode) String() string {
	switch m {
	case Compiled:
		return "compiled"
	case Pipelined:
		return "pipelined"
	case Auto:
		return "auto"
	case Wavefront:
		return "wavefront"
	}
	return "eager"
}

// NodeReport is the per-node line of an execution report.
type NodeReport struct {
	Name string
	Op   string
	Kind NodeKind
	// Start and End bound the node's execution in simulated time.
	Start, End sim.Time
	// RemotePuts and RemoteBytes count the node's GPU-initiated
	// communication (fused nodes only; library collectives move data
	// through the collective cost model instead).
	RemotePuts  int
	RemoteBytes float64
}

// Duration returns the node's simulated execution time.
func (nr NodeReport) Duration() sim.Duration { return nr.End.Sub(nr.Start) }

// StreamReport is the per-GPU stream-occupancy line of a stream-aware
// execution: how long each standing stream held work during the run and
// how much of that time the two streams overlapped.
type StreamReport struct {
	PE int
	// ComputeBusy and CommBusy are the per-stream busy times within the
	// run window.
	ComputeBusy, CommBusy sim.Duration
	// Overlap is the time both streams were busy simultaneously — the
	// communication the schedule actually hid.
	Overlap sim.Duration
}

// Report captures one graph execution.
type Report struct {
	Mode Mode
	// Start and End bound the whole graph (the makespan window).
	Start, End sim.Time
	// PEEnd is each PE's last node-completion time, indexed like the
	// graph's PE list — the per-PE skew input the operator-level
	// consumers (speedup tables, Fig 14) rely on.
	PEEnd []sim.Time
	// Nodes holds one entry per executed node, in graph order.
	Nodes []NodeReport
	// Select describes the plan the run lowered (nil in Eager mode).
	Select *SelectReport
	// Streams holds per-GPU stream occupancy (stream-aware runs only).
	Streams []StreamReport
}

// Duration returns the graph makespan.
func (r *Report) Duration() sim.Duration { return r.End.Sub(r.Start) }

// Node returns the report line of the named node, or nil.
func (r *Report) Node(name string) *NodeReport {
	for i := range r.Nodes {
		if r.Nodes[i].Name == name {
			return &r.Nodes[i]
		}
	}
	return nil
}

// RemotePuts sums GPU-initiated communication operations over nodes.
func (r *Report) RemotePuts() int {
	n := 0
	for i := range r.Nodes {
		n += r.Nodes[i].RemotePuts
	}
	return n
}

// RemoteBytes sums GPU-initiated communication bytes over nodes.
func (r *Report) RemoteBytes() float64 {
	b := 0.0
	for i := range r.Nodes {
		b += r.Nodes[i].RemoteBytes
	}
	return b
}

// StreamOccupancy returns the mean per-GPU busy fraction of the compute
// and comm streams over the makespan window (zeros when the run was not
// stream-aware or took no time).
func (r *Report) StreamOccupancy() (compute, comm float64) {
	if len(r.Streams) == 0 || r.End == r.Start {
		return 0, 0
	}
	span := float64(r.Duration())
	for _, s := range r.Streams {
		compute += float64(s.ComputeBusy) / span
		comm += float64(s.CommBusy) / span
	}
	n := float64(len(r.Streams))
	return compute / n, comm / n
}

// OverlapEfficiency returns the mean fraction of the shorter stream's
// busy time that overlapped the other stream — 1.0 means communication
// was entirely hidden behind compute (or vice versa), 0 means the
// streams ran strictly back to back. GPUs with an idle stream are
// skipped; returns 0 when no GPU had both streams busy.
func (r *Report) OverlapEfficiency() float64 {
	sum, n := 0.0, 0
	for _, s := range r.Streams {
		shorter := s.ComputeBusy
		if s.CommBusy < shorter {
			shorter = s.CommBusy
		}
		if shorter <= 0 {
			continue
		}
		sum += float64(s.Overlap) / float64(shorter)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// String renders the report as an aligned per-node table.
func (r *Report) String() string {
	s := fmt.Sprintf("graph run (%s): %v makespan\n", r.Mode, r.Duration())
	for _, nr := range r.Nodes {
		s += fmt.Sprintf("  %-28s %-32s %-10s %12v", nr.Name, nr.Op, nr.Kind, nr.Duration())
		if nr.RemotePuts > 0 {
			s += fmt.Sprintf("  %6d puts %10.1f KB", nr.RemotePuts, nr.RemoteBytes/1e3)
		}
		s += "\n"
	}
	if len(r.Streams) > 0 {
		comp, comm := r.StreamOccupancy()
		s += fmt.Sprintf("  streams: compute %.0f%%, comm %.0f%% occupancy, overlap efficiency %.0f%%\n",
			100*comp, 100*comm, 100*r.OverlapEfficiency())
	}
	return s
}

// DefaultChunks is the chunk depth Pipelined and Wavefront modes use
// when the executor's Chunks field is zero.
const DefaultChunks = 4

// Executor runs graphs with dataflow scheduling: every node starts the
// moment all its dependencies have finished. In stream-aware runs
// (Pipelined, Wavefront, and Auto modes, or any mode with Streams set)
// each ready node must additionally acquire its stream — compute/fused
// nodes the compute stream, collective nodes the comm stream, on every
// participating GPU — so concurrent nodes serialize realistically
// on-device instead of enjoying infinite parallelism, and the report
// gains per-stream occupancy statistics.
type Executor struct {
	// Chunks is the chunk depth K of Pipelined and Wavefront modes
	// (0 = DefaultChunks). Auto picks its own depths.
	Chunks int
	// Streams forces stream-aware scheduling in every mode. Pipelined,
	// Wavefront, and Auto runs are always stream-aware.
	Streams bool
	// Cache, when non-nil, shares Auto's priced plans across executors
	// (and engines) keyed by graph fingerprint — the cross-point
	// artifact cache parallel sweep workers hand to every runner so
	// identical (stack, shape) pairs are priced once per sweep instead
	// of once per point. Safe for concurrent use.
	Cache *PassCache
	// Load is the contention context Auto mode prices under. Zero (the
	// default) selects exactly as on an idle machine; a serving layer
	// sets it from observed queue depth so Select re-prices the forms
	// under load.
	Load LoadContext

	// memo caches the lowered graph per (source graph, mode) so repeated
	// executions (decode loops, training iterations) do not re-plan a
	// static graph. An entry is valid only for the graph's mutation
	// generation and the chunk depth and load key it was planned at, so
	// any edit — adding nodes or dependency edges, even without changing
	// the node count — or a new Chunks or Load re-plans.
	memo map[memoKey]memoEntry
}

type memoKey struct {
	g    *Graph
	mode Mode
}

type memoEntry struct {
	gen, chunks int
	load        string
	g           *Graph
	rep         *SelectReport
}

// lowering returns g lowered under mode's policy, planning on first use
// (or after g was mutated, or after the Chunks or Load the mode depends
// on changed). Only Auto consults the PassCache: the forced plans cost
// less to rebuild than a fingerprint costs to compute.
func (x *Executor) lowering(g *Graph, mode Mode) (*Graph, *SelectReport) {
	chunks, load := 0, ""
	switch mode {
	case Pipelined, Wavefront:
		chunks = x.Chunks
		if chunks <= 0 {
			chunks = DefaultChunks
		}
	case Auto:
		load = x.Load.key()
	}
	key := memoKey{g, mode}
	if ent, ok := x.memo[key]; ok && ent.gen == g.gen && ent.chunks == chunks && ent.load == load {
		return ent.g, ent.rep
	}
	var p *plan
	if mode == Auto {
		p = x.Cache.selectPlanFor(g, x.Load)
	} else {
		p = forcedPlan(g, mode, chunks)
	}
	lg, rep := lower(g, p)
	if x.memo == nil {
		x.memo = map[memoKey]memoEntry{}
	}
	x.memo[key] = memoEntry{gen: g.gen, chunks: chunks, load: load, g: lg, rep: rep}
	return lg, rep
}

// streamKindOf maps a node kind to the device stream it occupies:
// kernels (conventional and fused persistent) issue on the compute
// stream, host-launched library collectives on the comm stream.
func streamKindOf(k NodeKind) gpu.StreamKind {
	if k == KindCollective {
		return gpu.StreamComm
	}
	return gpu.StreamCompute
}

// streamSnapshot records per-device cumulative stream counters so the
// run window's deltas become the report.
type streamSnapshot struct {
	compute, comm, overlap sim.Duration
}

// Execute runs g in the given mode on the coordinating process and
// blocks until every node has finished. Every mode but Eager first
// lowers g under its policy — Compiled, Pipelined@K, Wavefront@K, or
// Auto's priced plan — cached across calls; the input graph is never
// modified. An empty graph is a valid no-op.
func (x *Executor) Execute(p *sim.Proc, g *Graph, mode Mode) *Report {
	rg := g
	rep := &Report{Mode: mode}
	if mode != Eager {
		rg, rep.Select = x.lowering(g, mode)
	}
	// Chunked and mixed-mode graphs need the two-queue device model to
	// overlap chunks; Compiled and Eager runs opt in with Streams.
	streamAware := x.Streams || mode == Pipelined || mode == Wavefront || mode == Auto

	pl := g.world.Platform()
	e := pl.E
	rep.Start = e.Now()
	rep.Nodes = make([]NodeReport, len(rg.nodes))

	var before map[int]streamSnapshot
	if streamAware {
		before = make(map[int]streamSnapshot, len(rg.pes))
		for _, pe := range rg.pes {
			dev := pl.Device(pe)
			before[pe] = streamSnapshot{
				compute: dev.StreamBusy(gpu.StreamCompute),
				comm:    dev.StreamBusy(gpu.StreamComm),
				overlap: dev.StreamOverlap(),
			}
		}
	}

	// Per-PE last-completion times, merged from every node's per-rank
	// report (rank order matches the graph's PE list). The node procs
	// are engine coroutines that run one at a time, so their updates
	// need no locking.
	rep.PEEnd = make([]sim.Time, len(rg.pes))

	done := sim.NewFlags(e, len(rg.nodes))
	all := sim.NewWaitGroup(e)
	all.Add(len(rg.nodes))
	for i, n := range rg.nodes {
		i, n := i, n
		e.Go(fmt.Sprintf("graph/%s", n.name), func(np *sim.Proc) {
			for _, in := range n.in {
				done[in.id].WaitGE(np, 1)
			}
			var r core.Report
			if streamAware {
				// Acquire the node's stream on every participating GPU in
				// ascending PE order (ordered acquisition: no deadlock),
				// run, release. Holding the whole set serializes the node
				// against same-stream nodes on-device while the other
				// stream keeps flowing — the two-queue overlap model.
				kind := streamKindOf(n.op.Kind())
				for _, pe := range rg.pes {
					pl.Device(pe).Stream(kind).Acquire(np)
				}
				r = n.op.Run(np)
				for _, pe := range rg.pes {
					pl.Device(pe).Stream(kind).Release()
				}
			} else {
				r = n.op.Run(np)
			}
			rep.Nodes[i] = NodeReport{
				Name: n.name, Op: n.op.OpName(), Kind: n.op.Kind(),
				Start: r.Start, End: r.End,
				RemotePuts: r.RemotePuts, RemoteBytes: r.RemoteBytes,
			}
			for pe := 0; pe < len(rep.PEEnd) && pe < len(r.PEEnd); pe++ {
				if r.PEEnd[pe] > rep.PEEnd[pe] {
					rep.PEEnd[pe] = r.PEEnd[pe]
				}
			}
			done[i].Set(1)
			all.Done()
		})
	}
	all.Wait(p)
	rep.End = e.Now()

	if streamAware {
		for _, pe := range rg.pes {
			dev := pl.Device(pe)
			b := before[pe]
			rep.Streams = append(rep.Streams, StreamReport{
				PE:          pe,
				ComputeBusy: dev.StreamBusy(gpu.StreamCompute) - b.compute,
				CommBusy:    dev.StreamBusy(gpu.StreamComm) - b.comm,
				Overlap:     dev.StreamOverlap() - b.overlap,
			})
		}
	}
	return rep
}

// Run executes g in the given mode with a default Executor — the
// one-line entry point for callers with no chunking, stream, or cache
// settings.
func Run(p *sim.Proc, g *Graph, mode Mode) *Report {
	var x Executor
	return x.Execute(p, g, mode)
}
