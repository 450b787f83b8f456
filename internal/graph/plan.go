package graph

import (
	"fmt"
	"strings"

	"fusedcc/internal/sim"
)

// The four non-eager execution modes are policies over one decision
// space, {eager | fuse | pipeline@K | wavefront@K} per matched pair. A
// plan records one policy's choice for every node it rewrites; a
// single lowering (lower) turns any plan into the executable graph and
// its SelectReport. Compiled, Pipelined@K, and Wavefront@K are forced
// plans — every matched pair in one form — built in one cheap walk;
// Auto's plan is priced by the analytic cost model (selectAnalyze).

// Decision records one node's planned form and, for priced (Auto)
// plans, the predicted costs of every eligible execution form — the
// per-pair line of a SelectReport.
type Decision struct {
	// Pattern classifies the pair; Compute and Collective name its
	// nodes (Compute is empty for the gradient-exchange swap).
	Pattern             Pattern
	Compute, Collective string
	// Choice is the planned execution form (Eager, Pipelined, Compiled,
	// or Wavefront for pairs scheduled inside a wavefront chain); Chunks
	// is the effective chunk depth (1 unless Pipelined or Wavefront).
	Choice Mode
	Chunks int
	// EagerCost, FusedCost, and PipelineCost are the predicted
	// durations of the three standalone forms (PipelineCost at the best
	// candidate K; zero when the pair cannot pipeline at all). Forced
	// plans are not priced and leave them zero.
	EagerCost, FusedCost, PipelineCost sim.Duration
	// Demand is the chosen form's bottleneck-stream demand: the busier
	// stream's total work, the per-execution service interval a loaded
	// machine sustains. A fused kernel's demand is its whole duration
	// (compute stream carries the communication too); eager and
	// pipelined forms split work across the two streams.
	Demand sim.Duration
}

// ChoiceString renders the chosen form, with the chunk depth for
// pipelined and wavefront decisions ("pipelined@4", "wavefront@4").
func (d Decision) ChoiceString() string {
	switch d.Choice {
	case Pipelined:
		return fmt.Sprintf("pipelined@%d", d.Chunks)
	case Wavefront:
		return fmt.Sprintf("wavefront@%d", d.Chunks)
	}
	return d.Choice.String()
}

// Predicted returns the predicted duration of the chosen form (zero for
// forced plans). A wavefront member reports zero here: its cost is
// carried by the chain's WavefrontDecision, not divisible per pair.
func (d Decision) Predicted() sim.Duration {
	switch d.Choice {
	case Compiled:
		return d.FusedCost
	case Pipelined:
		return d.PipelineCost
	case Wavefront:
		return 0
	}
	return d.EagerCost
}

// WavefrontDecision records one chain Auto's pricing scheduled as a
// cross-pair wavefront.
type WavefrontDecision struct {
	// Segments names the chain's segment head nodes in dataflow order.
	Segments []string
	// Chunks is the chain's chosen depth K.
	Chunks int
	// Predicted is the wavefront recurrence's cost at Chunks;
	// SplitPredicted is the sum of the segments' standalone bests the
	// wavefront beat.
	Predicted, SplitPredicted sim.Duration
}

// SelectReport describes one lowered plan, whichever mode built it: the
// per-pair decisions (with predicted costs when priced), the wavefront
// chains Auto priced, the rowwise splits and rewired joins of wavefront
// segments, plus the collectives no decision applied to.
type SelectReport struct {
	Decisions []Decision
	// Load is the contention context the plan was priced under (zero:
	// idle machine, or a forced plan).
	Load LoadContext
	// Wavefronts lists the chains Auto priced as cross-pair wavefronts.
	Wavefronts []WavefrontDecision
	// RowSplits counts rowwise per-rank nodes and row-structured
	// exchanges split into wavefront chunk chains.
	RowSplits int
	// Joins lists the layer-boundary join edges rewired to chunk
	// granularity.
	Joins []Join
	// Unmatched counts collective nodes no decision applied to (generic
	// collectives, gradient exchanges outside Compiled mode, pairs whose
	// compute output has another consumer): they stay eager.
	Unmatched int
	// Lowered marks a deterministic no-op: the input graph already
	// contained chunk sub-nodes from a previous lowering, so it was
	// returned unchanged.
	Lowered bool
}

func (r *SelectReport) String() string {
	if r.Lowered {
		return "plan: input graph already lowered (chunk nodes present); no-op\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d pair decision(s), %d wavefront chain(s), %d rowwise split(s), %d join(s) rewired, %d collective(s) left eager\n",
		len(r.Decisions), len(r.Wavefronts), r.RowSplits, len(r.Joins), r.Unmatched)
	if r.Load.Loaded() {
		fmt.Fprintf(&b, "  load: queue depth %.2f, arrival rate %.1f/s\n", r.Load.QueueDepth, r.Load.ArrivalRate)
	}
	if r.Load.Degrade.Degraded() {
		fmt.Fprintf(&b, "  degrade: compute x%.2f, comm x%.2f\n", r.Load.Degrade.comp(), r.Load.Degrade.comm())
	}
	for _, d := range r.Decisions {
		if d.Compute != "" {
			fmt.Fprintf(&b, "  %s: (%s, %s) -> %s", d.Pattern, d.Compute, d.Collective, d.ChoiceString())
		} else {
			fmt.Fprintf(&b, "  %s: %s -> %s", d.Pattern, d.Collective, d.ChoiceString())
		}
		if d.EagerCost > 0 {
			fmt.Fprintf(&b, "  [eager %v, fused %v, pipelined %v]", d.EagerCost, d.FusedCost, d.PipelineCost)
		}
		b.WriteByte('\n')
	}
	for _, w := range r.Wavefronts {
		fmt.Fprintf(&b, "  wavefront@%d over [%s]: predicted %v vs split %v\n",
			w.Chunks, strings.Join(w.Segments, " -> "), w.Predicted, w.SplitPredicted)
	}
	for _, j := range r.Joins {
		fmt.Fprintf(&b, "  join %s -> %s: chunk-granular at K=%d\n", j.Producer, j.Consumer, j.Chunks)
	}
	return b.String()
}

// PredictedTotal sums the predicted durations of the chosen forms —
// standalone pairs plus wavefront chains — a lower bound on their
// contribution to the makespan (forms may overlap each other). Zero for
// forced plans.
func (r *SelectReport) PredictedTotal() sim.Duration {
	var t sim.Duration
	for _, d := range r.Decisions {
		t += d.Predicted()
	}
	for _, w := range r.Wavefronts {
		t += w.Predicted
	}
	return t
}

// plan is one execution policy's rewrite of a graph, addressed by node
// id (insertion order) rather than node pointer, so a PassCache can
// replay Auto's priced plans on a structurally identical graph —
// another sweep point's instance of the same workload.
type plan struct {
	lowered bool
	// load is the contention context the plan was priced under; replayed
	// into the report so cached plans stay attributable.
	load LoadContext
	// decisions maps collective node ids to their planned form: matched
	// pairs, plus gradient exchanges swapped to the fused exchange.
	decisions map[int]Decision
	// rows maps rowwise node ids to their wavefront chunk depth.
	rows map[int]int
	// wavefronts lists Auto's priced chains in discovery order.
	wavefronts []WavefrontDecision
}

func newPlan(load LoadContext) *plan {
	return &plan{load: load, decisions: map[int]Decision{}, rows: map[int]int{}}
}

// forcedPlan builds the plan of a static mode: every matched pair in
// the mode's form — Compiled fuses it, Pipelined and Wavefront chunk it
// at the requested depth clamped to the operator's granularity (a pair
// that cannot split at least twice stays eager). Compiled also swaps
// every eager gradient exchange for the fused one; Wavefront also
// chunks every rowwise node, so provably aligned joins between chunked
// segments become chunk-granular.
func forcedPlan(g *Graph, mode Mode, chunks int) *plan {
	p := newPlan(LoadContext{})
	if lowered(g) {
		p.lowered = true
		return p
	}
	for coll, producer := range pairMatches(g) {
		op := coll.op.(*pairOp)
		d := Decision{Pattern: op.pattern, Compute: producer.name, Collective: coll.name, Choice: mode, Chunks: 1}
		if mode != Compiled {
			if d.Chunks = min(max(chunks, 1), op.pair.MaxChunks()); d.Chunks < 2 {
				d.Choice, d.Chunks = Eager, 1
			}
		}
		p.decisions[coll.id] = d
	}
	for _, n := range g.nodes {
		if gx, ok := n.op.(*gradExchangeOp); ok && !gx.fused && mode == Compiled {
			p.decisions[n.id] = Decision{Pattern: PatternGradExchange, Collective: n.name, Choice: Compiled, Chunks: 1}
		}
		if units, ok := rowUnits(n.op); ok && mode == Wavefront {
			if k := min(max(chunks, 1), units); k >= 2 {
				p.rows[n.id] = k
			}
		}
	}
	return p
}

// lower emits the graph a plan prescribes and reports it. The plan may
// come from g itself or from a PassCache hit on a structurally
// identical graph (same fingerprint, hence same node ids, names, and
// match set); emission always binds to g's own nodes and backing
// operators, so the output graph runs on g's world and shares its
// buffers — which is what keeps every mode bit-exact with eager. The
// input graph is never modified.
func lower(g *Graph, p *plan) (*Graph, *SelectReport) {
	rep := &SelectReport{Load: p.load, Wavefronts: p.wavefronts}
	if p.lowered {
		rep.Lowered = true
		return g, rep
	}
	em := newEmitter(g)
	match := pairMatches(g)
	planned := map[*Node]bool{} // compute halves emitted at their collective
	for coll, producer := range match {
		if d, ok := p.decisions[coll.id]; ok && d.Choice != Eager {
			planned[producer] = true
		}
	}
	for _, n := range g.nodes {
		if planned[n] {
			continue
		}
		if k, ok := p.rows[n.id]; ok {
			em.segs[n] = em.rowSegment(n, k)
			rep.RowSplits++
			continue
		}
		d, ok := p.decisions[n.id]
		if !ok {
			em.place(n, n.op)
			if n.op.Kind() == KindCollective {
				rep.Unmatched++
			}
			continue
		}
		switch producer := match[n]; {
		case d.Choice == Compiled && producer == nil: // gradient exchange
			em.place(n, &gradExchangeOp{op: n.op.(*gradExchangeOp).op, fused: true})
		case d.Choice == Compiled:
			em.fusePair(producer, n)
		case d.Choice == Pipelined:
			em.chunkChain(producer, n, d.Chunks)
		case d.Choice == Wavefront:
			// Registering the chain lets downstream segments pick up
			// chunk-granular join edges.
			em.segs[n] = em.chunkChain(producer, n, d.Chunks)
		default:
			em.place(n, n.op) // producer was copied at its own position
		}
		rep.Decisions = append(rep.Decisions, d)
	}
	rep.Joins = em.joins
	return em.out, rep
}

// Compile lowers g under the Compiled policy: every matched
// compute→collective pair becomes the corresponding fused
// computation-collective node, and every eager gradient exchange its
// fused counterpart. A pair matches only when the collective directly
// consumes the compute node's value, both are bound to the same backing
// operator, and the compute node has no other consumer.
func Compile(g *Graph) (*Graph, *SelectReport) { return lower(g, forcedPlan(g, Compiled, 0)) }

// Partition lowers g under the Pipelined@chunks policy: every matched
// pair becomes interleaved chunk chains (chunk c's collective overlaps
// chunk c+1's compute), chunk counts clamped to each operator's
// granularity; pairs that cannot split at least twice stay eager.
func Partition(g *Graph, chunks int) (*Graph, *SelectReport) {
	return lower(g, forcedPlan(g, Pipelined, chunks))
}

// PartitionWavefront lowers g under the Wavefront@chunks policy: pairs
// and rowwise nodes chunk at the requested depth, and every join edge
// between chunked segments whose ranges provably align (same range
// kind, consumer chunk reading only an upstream prefix) becomes
// chunk-granular, so an aligned stack runs as a wavefront instead of
// draining at each layer boundary. Where nothing aligns (e.g. a GEMV
// consumer, which reads its whole input) it degenerates to per-pair
// pipelining.
func PartitionWavefront(g *Graph, chunks int) (*Graph, *SelectReport) {
	return lower(g, forcedPlan(g, Wavefront, chunks))
}

// Select lowers g under the Auto policy: every matched pair takes its
// predicted-fastest form — fused node, chunk chains at the pair's own
// K, or the eager pair unchanged — and every alignable segment chain
// whose wavefront recurrence beats the sum of its segments' standalone
// bests is lowered whole as a cross-pair wavefront at the model's K.
// Gradient exchanges stay eager: the estimator surface covers the three
// pair operators.
func Select(g *Graph) (*Graph, *SelectReport) {
	return SelectLoaded(g, LoadContext{})
}

// SelectLoaded is Select priced under an observed serving load: each
// form's cost gains QueueDepth times its bottleneck-stream demand, so
// forms that concentrate work on one stream (the fused persistent
// kernel above all) lose ground to forms that split it as the queue
// deepens. SelectLoaded with the zero LoadContext is exactly Select.
func SelectLoaded(g *Graph, load LoadContext) (*Graph, *SelectReport) {
	return lower(g, selectAnalyze(g, load))
}
