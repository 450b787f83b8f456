package graph

import (
	"fmt"

	"fusedcc/internal/core"
	"fusedcc/internal/sim"
)

// Pricing is the Auto execution mode's plan builder, the quasi-static
// scheduler: where the forced builders set every matched pair to one
// form, selectAnalyze prices each pair's execution forms with the
// analytic cost model (the operators' Estimate* methods over the device
// and link models) and plans each pair in whichever form is predicted
// fastest — fused persistent kernel, pipeline at a per-pair
// saturation-clamped chunk depth, or the eager bulk-synchronous pair —
// all coexisting in one mixed-mode graph. This is the CoCoNet/GC3-style
// automation step: the user stops picking the mode and chunk count by
// hand.
//
// On top of the per-pair forms, pricing discovers chains of adjacent
// chunkable segments whose ranges align (pairs with chunk-range
// metadata, rowwise per-rank nodes with cost estimates, row-structured
// exchanges) and prices the cross-pair wavefront schedule@K against the
// sum of the segments' standalone bests — the wavefront pipeline
// recurrence. A chain the model predicts faster as a wavefront is
// planned whole: chunk chains with chunk-granular join edges, exactly
// what the forced Wavefront plan builds, at the model's chosen K.

// LoadContext describes observed serving load, so Select can price
// execution forms under contention instead of on an idle machine. On an
// idle machine the best form minimizes makespan; under an open-loop
// arrival process a new execution first drains the queue ahead of it,
// so its latency is its own makespan plus the queued executions' demand
// on the bottleneck stream. The zero value is the idle machine and
// reproduces the historical Select behavior exactly.
type LoadContext struct {
	// QueueDepth is the mean number of whole-graph executions queued or
	// in flight ahead of a newly admitted one — the multiplier on each
	// form's bottleneck-stream demand.
	QueueDepth float64
	// ArrivalRate is the offered load in executions per second.
	// Informational: recorded in reports and cache keys so plans priced
	// under different loads never alias.
	ArrivalRate float64
	// Degrade carries observed per-stream slowdown factors from a
	// degradation sampler, re-pricing every form for a degraded machine.
	// The zero value means nominal hardware.
	Degrade DegradeContext
}

// DegradeContext is the observed-degradation half of a LoadContext:
// multiplicative slowdown factors per stream class, fed by a
// degradation sampler (EWMA over observed link and kernel service rates). Factors
// below 1 (including the zero value) mean nominal. The fused form is
// charged the worse of the two factors on its whole duration — its
// persistent kernel couples compute with fine-grained communication,
// so one soured link stalls the entire chain — while eager and
// pipelined forms pay each factor only on the phases that use that
// stream. That asymmetry is what lets Auto flip a fused pair back to
// chunked or eager mid-run when a link degrades.
type DegradeContext struct {
	// Compute scales compute-phase durations (straggling kernels).
	Compute float64
	// Comm scales collective-phase durations (degraded links/NICs).
	Comm float64
}

// Degraded reports whether any slowdown is in force.
func (dc DegradeContext) Degraded() bool { return dc.Compute > 1 || dc.Comm > 1 }

// comp and comm normalize the factors (>= 1).
func (dc DegradeContext) comp() float64 {
	if dc.Compute > 1 {
		return dc.Compute
	}
	return 1
}

func (dc DegradeContext) comm() float64 {
	if dc.Comm > 1 {
		return dc.Comm
	}
	return 1
}

// coupled is the factor charged on forms that bind both streams into
// one schedule (the fused persistent kernel): the worse of the two.
func (dc DegradeContext) coupled() float64 {
	if c := dc.comp(); c > dc.comm() {
		return c
	}
	return dc.comm()
}

// scale multiplies a duration by a slowdown factor, exact at factor 1.
func scaleDur(d sim.Duration, f float64) sim.Duration {
	if f == 1 {
		return d
	}
	return sim.Duration(float64(d) * f)
}

// Loaded reports whether the context describes any contention.
func (lc LoadContext) Loaded() bool { return lc.QueueDepth > 0 }

// key renders the context for plan-cache keys and executor memos.
func (lc LoadContext) key() string {
	if !lc.Loaded() && lc.ArrivalRate == 0 && !lc.Degrade.Degraded() {
		return "idle"
	}
	k := fmt.Sprintf("d=%.6g,r=%.6g", lc.QueueDepth, lc.ArrivalRate)
	if lc.Degrade.Degraded() {
		k += fmt.Sprintf(",sc=%.6g,sl=%.6g", lc.Degrade.comp(), lc.Degrade.comm())
	}
	return k
}

// loadedCost is the contention-aware price of a form: its own latency
// plus the expected drain of the queue ahead of it, each queued
// execution charged at this form's bottleneck-stream demand (the
// steady-state service interval once the two streams pipeline across
// executions).
func (lc LoadContext) loadedCost(lat, demand sim.Duration) float64 {
	return float64(lat) + lc.QueueDepth*float64(demand)
}

// maxCandidateChunks bounds the per-pair K search; granularities beyond
// this see vanishing returns while the pass cost grows linearly.
const maxCandidateChunks = 32

// wavefrontMargin is the predicted advantage a wavefront chain must
// clear over the sum of its segments' standalone bests before the pass
// schedules it — the guard band for the residual bias between the
// chunked estimators pricing the wavefront side and the fused drain
// model that may price the split side.
const wavefrontMargin = 0.03

// pipelineCost prices pipeline@k with the two-stream pipeline
// recurrence: compute chunks run back to back on the compute stream,
// chunk c's collective starts once both its compute chunk and the
// previous collective chunk are done. Non-head collective chunks are
// priced at the chunk-chain dispatch cost by the operator's estimator.
// Alongside the makespan it returns the form's bottleneck-stream
// demand: the busier stream's summed chunk work, the steady-state
// per-execution interval when executions pipeline back to back.
func pipelineCost(est core.Pair, k int) (lat, demand sim.Duration) {
	var compEnd, collEnd, compSum, collSum sim.Duration
	for c := 0; c < k; c++ {
		comp := est.EstimateComputeChunk(c, k)
		compSum += comp
		compEnd += comp
		start := compEnd
		if collEnd > start {
			start = collEnd
		}
		coll := est.EstimateCollectiveChunk(c, k)
		collSum += coll
		collEnd = start + coll
	}
	demand = compSum
	if collSum > demand {
		demand = collSum
	}
	return collEnd, demand
}

// decide prices one pair's eligible execution forms and picks the
// cheapest under the given load: eager (compute then collective,
// serial), fused, or the best pipeline depth K in [2, min(MaxChunks,
// SaturationChunks)] — the saturation clamp keeps every chunk large
// enough to fill the device's WG slots. At zero load the loaded cost
// degenerates to the pure latency and the historical idle-machine
// choice is reproduced exactly; under load each form is additionally
// charged QueueDepth times its bottleneck-stream demand, which
// penalizes the fused form (its persistent kernel carries the
// communication on the compute stream, so its demand is its whole
// duration) relative to the split forms.
func decide(est core.Pair, load LoadContext) Decision {
	if load.Degrade.Degraded() {
		est = &degradedEstimator{Pair: est, dc: load.Degrade}
	}
	d := Decision{Choice: Eager, Chunks: 1}
	comp := est.EstimateComputeChunk(0, 1)
	coll := est.EstimateCollectiveChunk(0, 1)
	d.EagerCost = comp + coll
	d.FusedCost = est.EstimateFused()
	eagerDemand := comp
	if coll > eagerDemand {
		eagerDemand = coll
	}

	maxK := est.SaturationChunks()
	if mc := est.MaxChunks(); maxK > mc {
		maxK = mc
	}
	if maxK > maxCandidateChunks {
		maxK = maxCandidateChunks
	}
	bestK := 0
	var pipeDemand sim.Duration
	for k := 2; k <= maxK; k++ {
		cost, dem := pipelineCost(est, k)
		if bestK == 0 || load.loadedCost(cost, dem) < load.loadedCost(d.PipelineCost, pipeDemand) {
			d.PipelineCost, pipeDemand, bestK = cost, dem, k
		}
	}

	d.Demand = eagerDemand
	best := load.loadedCost(d.EagerCost, eagerDemand)
	if c := load.loadedCost(d.FusedCost, d.FusedCost); c < best {
		d.Choice, best, d.Demand = Compiled, c, d.FusedCost
	}
	if bestK > 0 && load.loadedCost(d.PipelineCost, pipeDemand) < best {
		d.Choice, d.Chunks, d.Demand = Pipelined, bestK, pipeDemand
	}
	return d
}

// degradedEstimator re-prices a pair's cost surface for a degraded
// machine: compute chunks scale by the compute slowdown, collective
// chunks by the link slowdown, and the fused kernel — whose persistent
// chain couples both streams — by the worse of the two. Chunk bounds
// pass through unchanged.
type degradedEstimator struct {
	core.Pair
	dc DegradeContext
}

func (e *degradedEstimator) EstimateComputeChunk(c, n int) sim.Duration {
	return scaleDur(e.Pair.EstimateComputeChunk(c, n), e.dc.comp())
}

func (e *degradedEstimator) EstimateCollectiveChunk(c, n int) sim.Duration {
	return scaleDur(e.Pair.EstimateCollectiveChunk(c, n), e.dc.comm())
}

func (e *degradedEstimator) EstimateFused() sim.Duration {
	return scaleDur(e.Pair.EstimateFused(), e.dc.coupled())
}

// --- wavefront chain analysis ---

// wfSeg is one chunkable segment of a wavefront chain candidate: a
// priced pair, a rowwise per-rank node with a cost estimate, or a
// row-structured exchange.
type wfSeg struct {
	head, tail *Node
	// Exactly one of pair/rows/a2a describes the segment.
	pair core.Pair
	rows *rowsOp
	a2a  *symmA2ARowsOp
	// maxK is the segment's chunk-depth bound (granularity, and
	// WG-slot saturation for pairs).
	maxK int
	// inKind/inOK describe what the segment's head may consume
	// chunk-granularly; outKind what its chunks finalize.
	inKind, outKind core.RangeKind
	inOK            bool
	// dc re-prices rowwise and exchange segments for a degraded machine
	// (pair segments carry the scaling inside their wrapped estimator).
	dc DegradeContext
}

// compChunk prices the segment's compute work of chunk c of k.
func (s *wfSeg) compChunk(c, k int) sim.Duration {
	switch {
	case s.pair != nil:
		return s.pair.EstimateComputeChunk(c, k)
	case s.rows != nil:
		lo, hi := core.ChunkSpan(c, k, s.rows.spec.Units)
		return scaleDur(s.rows.spec.Estimate(lo, hi), s.dc.comp())
	}
	return 0
}

// collChunk prices the segment's collective work of chunk c of k,
// discounted to the chunk-chain dispatch cost for non-head chunks.
func (s *wfSeg) collChunk(c, k int) sim.Duration {
	switch {
	case s.pair != nil:
		return s.pair.EstimateCollectiveChunk(c, k)
	case s.a2a != nil:
		lo, hi := core.ChunkSpan(c, k, s.a2a.rows)
		if hi <= lo {
			return 0
		}
		comm := core.ChunkComm(s.a2a.g.world.Platform(), s.a2a.g.pes, c)
		return scaleDur(comm.EstimateAllToAll((hi-lo)*s.a2a.epr, s.a2a.algo), s.dc.comm())
	}
	return 0
}

// standalone prices the segment executed on its own in its best
// standalone form (the baseline a wavefront must beat).
func (s *wfSeg) standalone(decisions map[*Node]Decision) sim.Duration {
	switch {
	case s.pair != nil:
		return decisions[s.tail].Predicted()
	case s.rows != nil:
		return scaleDur(s.rows.spec.Estimate(0, s.rows.spec.Units), s.dc.comp())
	case s.a2a != nil:
		return s.collChunk(0, 1)
	}
	return 0
}

// standaloneDemand prices the segment's bottleneck-stream demand in its
// chosen standalone form. Pure-compute and pure-collective segments
// occupy one stream for their whole duration, so their demand is their
// standalone cost; pairs carry the demand of whichever form decide()
// chose.
func (s *wfSeg) standaloneDemand(decisions map[*Node]Decision) sim.Duration {
	if s.pair != nil {
		return decisions[s.tail].Demand
	}
	return s.standalone(decisions)
}

// wavefrontCost prices the chain executed as a wavefront at depth k:
// the multi-segment generalization of the two-stream pipeline
// recurrence, evaluated by greedy list scheduling (the executor's
// dataflow model). Chunk c of segment i becomes ready once segment i's
// chunk c−1 and segment i−1's chunk c have finished; compute chunks
// serialize on the compute stream, collective chunks on the comm
// stream, and each stream runs the earliest-ready chunk next — a
// strict wave order would wrongly stall cheap upstream chunks behind
// the whole previous wave.
func wavefrontCost(chain []*wfSeg, k int) sim.Duration {
	n := len(chain)
	// Per-chunk durations memoized up front: the scheduling scans below
	// revisit every pending chunk per step.
	compDur := make([]sim.Duration, n*k)
	collDur := make([]sim.Duration, n*k)
	for i, s := range chain {
		for c := 0; c < k; c++ {
			compDur[i*k+c] = s.compChunk(c, k)
			collDur[i*k+c] = s.collChunk(c, k)
		}
	}
	// compEnd/collEnd[i*k+c]; scheduled tracks completion.
	compEnd := make([]sim.Duration, n*k)
	collEnd := make([]sim.Duration, n*k)
	compDone := make([]bool, n*k)
	collDone := make([]bool, n*k)
	var compFree, collFree sim.Duration
	// compReady returns the dependency-ready time of comp(i,c), valid
	// only once its dependencies are done.
	depsOK := func(i, c int) (sim.Duration, bool) {
		var ready sim.Duration
		if c > 0 {
			if !compDone[i*k+c-1] {
				return 0, false
			}
			ready = compEnd[i*k+c-1]
		}
		if i > 0 {
			if !collDone[(i-1)*k+c] {
				return 0, false
			}
			if t := collEnd[(i-1)*k+c]; t > ready {
				ready = t
			}
		}
		return ready, true
	}
	collDeps := func(i, c int) (sim.Duration, bool) {
		if !compDone[i*k+c] {
			return 0, false
		}
		ready := compEnd[i*k+c]
		if c > 0 {
			if !collDone[i*k+c-1] {
				return 0, false
			}
			if t := collEnd[i*k+c-1]; t > ready {
				ready = t
			}
		}
		return ready, true
	}
	remaining := 2 * n * k
	for remaining > 0 {
		progress := false
		// Zero-duration phases complete instantly at their ready time
		// (they occupy no stream).
		for i := 0; i < n; i++ {
			for c := 0; c < k; c++ {
				if !compDone[i*k+c] && compDur[i*k+c] == 0 {
					if ready, ok := depsOK(i, c); ok {
						compEnd[i*k+c], compDone[i*k+c] = ready, true
						remaining--
						progress = true
					}
				}
				if !collDone[i*k+c] && compDone[i*k+c] && collDur[i*k+c] == 0 {
					if ready, ok := collDeps(i, c); ok {
						collEnd[i*k+c], collDone[i*k+c] = ready, true
						remaining--
						progress = true
					}
				}
			}
		}
		// Each stream runs its earliest-ready pending chunk.
		bestI, bestC, bestReady := -1, -1, sim.Duration(0)
		for i := 0; i < n; i++ {
			for c := 0; c < k; c++ {
				if compDone[i*k+c] || compDur[i*k+c] == 0 {
					continue
				}
				if ready, ok := depsOK(i, c); ok && (bestI < 0 || ready < bestReady) {
					bestI, bestC, bestReady = i, c, ready
				}
			}
		}
		if bestI >= 0 {
			start := bestReady
			if compFree > start {
				start = compFree
			}
			compEnd[bestI*k+bestC] = start + compDur[bestI*k+bestC]
			compDone[bestI*k+bestC] = true
			compFree = compEnd[bestI*k+bestC]
			remaining--
			progress = true
		}
		bestI, bestC, bestReady = -1, -1, 0
		for i := 0; i < n; i++ {
			for c := 0; c < k; c++ {
				if collDone[i*k+c] || collDur[i*k+c] == 0 {
					continue
				}
				if ready, ok := collDeps(i, c); ok && (bestI < 0 || ready < bestReady) {
					bestI, bestC, bestReady = i, c, ready
				}
			}
		}
		if bestI >= 0 {
			start := bestReady
			if collFree > start {
				start = collFree
			}
			collEnd[bestI*k+bestC] = start + collDur[bestI*k+bestC]
			collDone[bestI*k+bestC] = true
			collFree = collEnd[bestI*k+bestC]
			remaining--
			progress = true
		}
		if !progress {
			break // unreachable: the dependency DAG is acyclic
		}
	}
	return collEnd[n*k-1]
}

// wavefrontDemand prices the chain's bottleneck-stream demand at depth
// k: the busier stream's total chunk work summed across all segments —
// what each queued execution behind this one costs once executions
// pipeline through the two streams.
func wavefrontDemand(chain []*wfSeg, k int) sim.Duration {
	var comp, coll sim.Duration
	for _, s := range chain {
		for c := 0; c < k; c++ {
			comp += s.compChunk(c, k)
			coll += s.collChunk(c, k)
		}
	}
	if coll > comp {
		return coll
	}
	return comp
}

// wfSegments collects the chunkable segments of g: matched pairs with
// both a cost surface and chunk-range metadata, rowwise per-rank nodes
// with cost estimates, and row-structured exchanges. Returned keyed by
// tail node. dc re-prices every segment for a degraded machine (the
// zero value is exact nominal pricing).
func wfSegments(g *Graph, match map[*Node]*Node, dc DegradeContext) map[*Node]*wfSeg {
	segs := map[*Node]*wfSeg{}
	for coll, producer := range match {
		est := coll.op.(*pairOp).pair
		if dc.Degraded() {
			est = &degradedEstimator{Pair: est, dc: dc}
		}
		// Granularity bounds K, but NOT the WG-slot saturation clamp the
		// standalone decide() applies: an under-filled chunk's extra
		// device rounds are priced directly by EstimateComputeChunk in
		// the wavefront recurrence, and in a wavefront the idle slots are
		// filled by neighboring segments' chunks rather than wasted.
		maxK := est.MaxChunks()
		if maxK > maxCandidateChunks {
			maxK = maxCandidateChunks
		}
		s := &wfSeg{head: producer, tail: coll, pair: est, maxK: maxK}
		s.outKind = est.ChunkOut(0, 1).Kind
		in, inOK := est.ChunkIn(0, 2)
		s.inKind, s.inOK = in.Kind, inOK
		segs[coll] = s
	}
	for _, n := range g.nodes {
		switch op := n.op.(type) {
		case *rowsOp:
			if op.spec.Estimate == nil {
				continue // no cost surface: cannot price a wavefront through it
			}
			maxK := op.spec.Units
			if maxK > maxCandidateChunks {
				maxK = maxCandidateChunks
			}
			segs[n] = &wfSeg{head: n, tail: n, rows: op, maxK: maxK,
				inKind: op.spec.Kind, outKind: op.spec.Kind, inOK: true, dc: dc}
		case *symmA2ARowsOp:
			maxK := op.rows
			if maxK > maxCandidateChunks {
				maxK = maxCandidateChunks
			}
			segs[n] = &wfSeg{head: n, tail: n, a2a: op, maxK: maxK,
				inKind: core.RangeRows, outKind: core.RangeRows, inOK: true, dc: dc}
		}
	}
	return segs
}

// wfChains links segments into maximal linear chains: segment B follows
// segment A when B's head directly consumes A's tail, B may consume
// chunk-granularly, and the range kinds match. Ambiguous links (a head
// consuming two segment tails, a tail feeding two segment heads) break
// the chain — the recurrence prices linear wavefronts. Only chains of
// at least two segments that can chunk at least twice are returned, in
// dataflow order.
func wfChains(g *Graph, segs map[*Node]*wfSeg) [][]*wfSeg {
	pred := map[*wfSeg]*wfSeg{}
	succCount := map[*wfSeg]int{}
	for _, s := range segs {
		if !s.inOK {
			continue
		}
		var producers []*wfSeg
		for _, in := range s.head.in {
			if p := segs[in]; p != nil && p.outKind == s.inKind && p != s {
				producers = append(producers, p)
			}
		}
		if len(producers) == 1 {
			pred[s] = producers[0]
			succCount[producers[0]]++
		}
	}
	var chains [][]*wfSeg
	// Walk nodes in order so chains come out deterministic.
	for _, n := range g.nodes {
		s := segs[n]
		if s == nil || s.tail != n {
			continue
		}
		if p, ok := pred[s]; ok && succCount[p] == 1 {
			continue // interior or tail of a chain: reached from its head
		}
		chain := []*wfSeg{s}
		cur := s
		for {
			var next *wfSeg
			if succCount[cur] == 1 {
				for _, cand := range segs {
					if pred[cand] == cur {
						next = cand
						break
					}
				}
			}
			if next == nil {
				break
			}
			chain = append(chain, next)
			cur = next
		}
		if len(chain) >= 2 {
			chains = append(chains, chain)
		}
	}
	return chains
}

// selectAnalyze is Auto's plan builder: it prices every fusible pair
// and alignable chain of g under the given load — estimator sweeps over
// candidate chunk depths plus the wavefront recurrence per chain — and
// returns the resulting plan without touching the graph. It is the one
// builder expensive enough to be worth a PassCache.
func selectAnalyze(g *Graph, load LoadContext) *plan {
	p := newPlan(load)
	if lowered(g) {
		p.lowered = true
		return p
	}
	match := pairMatches(g)
	decisions := map[*Node]Decision{}
	for coll, producer := range match {
		op := coll.op.(*pairOp)
		d := decide(op.pair, load)
		d.Pattern, d.Compute, d.Collective = op.pattern, producer.name, coll.name
		decisions[coll] = d
	}

	// Wavefront analysis: price each alignable chain at every admissible
	// K against the sum of its segments' standalone bests, both sides at
	// their loaded cost.
	segs := wfSegments(g, match, load.Degrade)
	for _, chain := range wfChains(g, segs) {
		kmax := chain[0].maxK
		var split, splitDemand sim.Duration
		for _, s := range chain {
			if s.maxK < kmax {
				kmax = s.maxK
			}
			split += s.standalone(decisions)
			splitDemand += s.standaloneDemand(decisions)
		}
		bestK, bestCost := 0, sim.Duration(0)
		var bestDemand sim.Duration
		for k := 2; k <= kmax; k++ {
			cost, dem := wavefrontCost(chain, k), wavefrontDemand(chain, k)
			if bestK == 0 || load.loadedCost(cost, dem) < load.loadedCost(bestCost, bestDemand) {
				bestK, bestCost, bestDemand = k, cost, dem
			}
		}
		// The wavefront side is priced by the chunked estimators, the
		// split side partly by the fused drain model — different
		// estimator families with residual biases of a few percent. A
		// sub-margin predicted win is indistinguishable from that noise,
		// and mis-scheduling a whole chain costs more than the forgone
		// sliver, so the wavefront must clear the margin to be chosen.
		if bestK == 0 || load.loadedCost(bestCost, bestDemand) >= (1-wavefrontMargin)*load.loadedCost(split, splitDemand) {
			continue // the chain's segments run better on their own
		}
		names := make([]string, len(chain))
		for i, s := range chain {
			names[i] = s.head.name
			if s.pair != nil {
				d := decisions[s.tail]
				d.Choice, d.Chunks = Wavefront, bestK
				decisions[s.tail] = d
			} else {
				p.rows[s.tail.id] = bestK
			}
		}
		p.wavefronts = append(p.wavefronts, WavefrontDecision{
			Segments: names, Chunks: bestK, Predicted: bestCost, SplitPredicted: split,
		})
	}
	for n, d := range decisions {
		p.decisions[n.id] = d
	}
	return p
}
