package graph

import (
	"fmt"
	"strings"
	"sync"

	"fusedcc/internal/core"
)

// PassCache shares Auto's priced plans across executors and engines. A
// sweep runs the same workload at many points — the same (stack,
// platform shape) pair re-instantiated per chunk-count point, per mode,
// per experiment — and every Auto point would re-price identical cost
// surfaces from scratch. The cache keys each priced plan on a
// structural fingerprint of the graph and its platform (shapes,
// configs, and sampled cost surfaces — never pointers), so a
// structurally identical graph built on a different engine replays the
// stored plan instead of re-running the estimator sweeps and wavefront
// recurrences. Lowering is never cached: plans are id-addressed and
// replayed against each graph's own nodes and backing operators.
//
// Only priced plans are cached. The forced Compiled, Pipelined, and
// Wavefront plans are one cheap walk over the match set, far cheaper
// than the fingerprint a lookup would compute.
//
// The cache is safe for concurrent use by parallel sweep workers.
// Plans are immutable after publication; two workers racing on the
// same key at worst analyze the same graph twice and keep the first
// published plan.
type PassCache struct {
	mu     sync.Mutex
	plans  map[string]*plan
	hits   int64
	misses int64
}

// NewPassCache returns an empty cache.
func NewPassCache() *PassCache {
	return &PassCache{plans: map[string]*plan{}}
}

// Stats reports the cumulative hit and miss counts.
func (c *PassCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// selectPlanFor returns the cached select plan of g's fingerprint
// under the given load, analyzing g on a miss; a nil cache analyzes
// every time. The load joins the key: the same graph priced under
// different contention can legitimately choose different forms, so
// plans never alias across load contexts.
func (c *PassCache) selectPlanFor(g *Graph, load LoadContext) *plan {
	if c == nil {
		return selectAnalyze(g, load)
	}
	key := load.key() + "|" + fingerprint(g)
	c.mu.Lock()
	if p, ok := c.plans[key]; ok {
		c.hits++
		c.mu.Unlock()
		return p
	}
	c.misses++
	c.mu.Unlock()
	// Analyze outside the lock: pricing is the expensive part, and a
	// concurrent worker on the same key computes an identical plan.
	p := selectAnalyze(g, load)
	c.mu.Lock()
	if prev, ok := c.plans[key]; ok {
		p = prev
	} else {
		c.plans[key] = p
	}
	c.mu.Unlock()
	return p
}

// probeKs are the chunk depths at which cost surfaces are sampled into
// fingerprints (each clamped to the operator's granularity). The probes
// bracket the range pricing actually searches (2..maxCandidateChunks)
// closely enough that two workloads with different surfaces cannot
// collide, while costing a small fraction of one decide() sweep.
var probeKs = [...]int{1, 2, 3, 4, 5, 8, 16, maxCandidateChunks}

// fingerprint renders everything pricing can observe about g into a deterministic string: the platform and
// operator configurations (value types — the one pointer field,
// Timeline, is reduced to presence), the node structure (names, op
// names, kinds, input ids), the pair operators' chunk-range metadata,
// and their cost surfaces sampled at the probe depths. Pointers never
// enter the key, so two graphs describing the same workload on
// different engines fingerprint identically — the property the sweep
// cache rests on.
func fingerprint(g *Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "platform=%+v\n", g.world.Platform().Config())
	cfg := g.cfg
	fmt.Fprintf(&b, "cfg={wgs:%d bk:%d sched:%d zc:%t coll:%d tl:%t}\n",
		cfg.WGsPerCU, cfg.Bookkeeping, cfg.Schedule, cfg.DisableZeroCopy, cfg.Collective, cfg.Timeline != nil)
	fmt.Fprintf(&b, "pes=%v\n", g.pes)
	for _, n := range g.nodes {
		fmt.Fprintf(&b, "n%d=%q op=%q kind=%d in=[", n.id, n.name, n.op.OpName(), n.op.Kind())
		for _, in := range n.in {
			fmt.Fprintf(&b, "%d,", in.id)
		}
		b.WriteByte(']')
		describeOp(&b, n.op)
		b.WriteByte('\n')
	}
	return b.String()
}

// describeOp appends the op's analysis-visible surface. Pair surfaces
// are sampled once, at the collective half (both halves share the
// backing operator); opaque per-rank bodies contribute structure only
// (no pass prices them, and plans replay against each graph's own ops).
func describeOp(b *strings.Builder, op Op) {
	switch o := op.(type) {
	case *pairOp:
		if half(o, KindCollective) != nil {
			describePair(b, o.pair)
		}
	case *rowsOp:
		fmt.Fprintf(b, " rows{kind:%d units:%d", o.spec.Kind, o.spec.Units)
		if o.spec.Estimate != nil {
			samplePoints(b, o.spec.Units, func(c, k int) {
				lo, hi := core.ChunkSpan(c, k, o.spec.Units)
				fmt.Fprintf(b, " %d/%d:%d", c, k, o.spec.Estimate(lo, hi))
			})
		}
		b.WriteByte('}')
	case *symmA2ARowsOp:
		fmt.Fprintf(b, " a2a_rows{rows:%d epr:%d algo:%d}", o.rows, o.epr, o.algo)
	case *symmCollectiveOp:
		fmt.Fprintf(b, " symm{%s off:%d elems:%d algo:%d}", o.name, o.off, o.elems, o.algo)
	}
}

// describePair samples a pair operator's cost surface and chunk-range
// metadata.
func describePair(b *strings.Builder, est core.Pair) {
	fmt.Fprintf(b, " pair{max:%d sat:%d fused:%d",
		est.MaxChunks(), est.SaturationChunks(), est.EstimateFused())
	in, inOK := est.ChunkIn(0, 2)
	fmt.Fprintf(b, " out:%+v in:%+v/%t", est.ChunkOut(0, 1), in, inOK)
	samplePoints(b, est.MaxChunks(), func(c, k int) {
		fmt.Fprintf(b, " %d/%d:%d,%d", c, k,
			est.EstimateComputeChunk(c, k), est.EstimateCollectiveChunk(c, k))
	})
	b.WriteByte('}')
}

// samplePoints visits (chunk, depth) probe points up to the surface's
// granularity: first, middle, and last chunk at each probe depth.
func samplePoints(b *strings.Builder, maxK int, visit func(c, k int)) {
	for _, k := range probeKs {
		if k > maxK {
			break
		}
		visit(0, k)
		if k > 2 {
			visit(k/2, k)
		}
		if k > 1 {
			visit(k-1, k)
		}
	}
}
