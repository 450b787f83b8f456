package collectives

import (
	"fmt"

	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

// Algo selects a collective algorithm. The zero value is Auto, which
// picks per the communicator's node layout — the GC3/MSCCL-style
// topology-aware selection step that library collectives perform before
// dispatching a kernel.
type Algo int

const (
	// Auto resolves to Hierarchical when the communicator spans several
	// multi-GPU nodes with a regular layout, and to Flat otherwise.
	Auto Algo = iota
	// Flat forces the single-level algorithms: two-phase direct
	// AllReduce, pairwise-exchange AllToAll.
	Flat
	// Ring forces the ring AllReduce (AllToAll has no ring form and
	// falls back to Flat).
	Ring
	// Hierarchical forces the two-level algorithms that split traffic
	// between the intra-node fabric and the inter-node NIC.
	Hierarchical
)

func (a Algo) String() string {
	switch a {
	case Flat:
		return "flat"
	case Ring:
		return "ring"
	case Hierarchical:
		return "hierarchical"
	default:
		return "auto"
	}
}

// nodeGroups returns the communicator's ranks grouped by hosting node,
// groups in first-appearance (rank) order.
func (c *Comm) nodeGroups() [][]int {
	idx := map[int]int{}
	var groups [][]int
	for r, pe := range c.pes {
		n := c.pl.NodeOf(pe)
		g, ok := idx[n]
		if !ok {
			g = len(groups)
			idx[n] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], r)
	}
	return groups
}

// hierGroups returns the node groups and whether the layout supports the
// two-level algorithms: at least two nodes, every node hosting the same
// number (>= 2) of ranks.
func (c *Comm) hierGroups() ([][]int, bool) {
	groups := c.nodeGroups()
	if len(groups) < 2 || len(groups[0]) < 2 {
		return groups, false
	}
	for _, g := range groups {
		if len(g) != len(groups[0]) {
			return groups, false
		}
	}
	return groups, true
}

// Resolve reports the algorithm Auto selects for this communicator; a
// non-Auto algorithm resolves to itself.
func (c *Comm) Resolve(a Algo) Algo {
	if a != Auto {
		return a
	}
	if _, ok := c.hierGroups(); ok {
		return Hierarchical
	}
	return Flat
}

// AllReduce runs the in-place AllReduce over data[off:off+n] with the
// selected algorithm (see Algo).
func (c *Comm) AllReduce(p *sim.Proc, data *shmem.Symm, off, n int, algo Algo) {
	switch c.Resolve(algo) {
	case Ring:
		c.AllReduceRing(p, data, off, n)
	case Hierarchical:
		c.AllReduceHier(p, data, off, n)
	default:
		c.AllReduceDirect(p, data, off, n)
	}
}

// AllToAll exchanges cnt elements between every pair of ranks with the
// selected algorithm: send[d*cnt:(d+1)*cnt] on rank s lands at
// recv[s*cnt:(s+1)*cnt] on rank d.
func (c *Comm) AllToAll(p *sim.Proc, send, recv *shmem.Symm, cnt int, algo Algo) {
	c.AllToAllSub(p, send, recv, cnt, 0, cnt, algo)
}

// AllToAllSub exchanges one sub-block of each per-destination block:
// rank s's send[d*stride+off : +cnt] lands at recv[s*stride+off] on rank
// d. AllToAll is the special case off=0, cnt=stride. This is the chunked
// collective of the pipelined execution mode: a partitioned exchange
// moves 1/K of every block per call while later compute chunks still
// fill the rest of the staging buffer.
func (c *Comm) AllToAllSub(p *sim.Proc, send, recv *shmem.Symm, stride, off, cnt int, algo Algo) {
	if off < 0 || cnt <= 0 || off+cnt > stride {
		panic(fmt.Sprintf("collectives: AllToAllSub sub-block [%d,%d) outside block stride %d", off, off+cnt, stride))
	}
	if c.Resolve(algo) == Hierarchical {
		c.allToAllHier(p, send, recv, stride, off, cnt)
		return
	}
	c.allToAllFlat(p, send, recv, stride, off, cnt)
}

// sub builds a communicator over a subset of this communicator's ranks,
// inheriting platform, protocol, and launch overheads.
func (c *Comm) sub(ranks []int) *Comm {
	pes := make([]int, len(ranks))
	for i, r := range ranks {
		pes[i] = c.pes[r]
	}
	return &Comm{pl: c.pl, pes: pes, protocol: c.protocol, launch: c.launch}
}

// AllReduceHier is the two-level AllReduce for multi-node clusters of
// multi-GPU nodes ("The Big Send-off" hierarchy): an intra-node
// ReduceScatter over the fabric leaves local rank j holding shard j of
// its node's sum; an inter-node AllReduce among same-local-index ranks
// moves only 1/GPUsPerNode of the payload over each NIC; an intra-node
// AllGather replicates the reduced shards. Layouts that do not support
// the hierarchy fall back to the flat direct algorithm.
//
// Functional-mode results are canonicalized to the flat reduction order
// (ascending global rank), so hierarchical runs are bit-exact against
// the flat algorithms.
func (c *Comm) AllReduceHier(p *sim.Proc, data *shmem.Symm, off, n int) {
	groups, ok := c.hierGroups()
	if !ok {
		c.AllReduceDirect(p, data, off, n)
		return
	}
	sums := c.snapshotSum(data, off, n)
	intra := make([]*Comm, len(groups))
	for g := range groups {
		intra[g] = c.sub(groups[g])
	}
	// Level 1: intra-node reduce-scatter, all nodes concurrent.
	p.ForkJoin(len(groups), "hier.rs", func(pp *sim.Proc, g int) {
		intra[g].ReduceScatter(pp, data, off, n)
	})
	// Level 2: inter-node AllReduce of each shard over the NIC. Local
	// rank j on every node owns shard j of its node's partial sum; the
	// per-local-index communicators run concurrently and share the NICs.
	local := len(groups[0])
	p.ForkJoin(local, "hier.ar", func(pp *sim.Proc, j int) {
		ranks := make([]int, len(groups))
		for g := range groups {
			ranks[g] = groups[g][j]
		}
		lo, hi := intra[0].shard(n, j)
		if hi > lo {
			c.sub(ranks).AllReduceDirect(pp, data, off+lo, hi-lo)
		}
	})
	// Level 3: intra-node all-gather of the globally reduced shards.
	p.ForkJoin(len(groups), "hier.ag", func(pp *sim.Proc, g int) {
		intra[g].AllGather(pp, data, off, n)
	})
	c.writeAll(data, off, sums)
}

// AllToAllHier is the hierarchical All-to-All: every rank forwards its
// remote-node blocks to its node leader over the fabric (pack), leaders
// exchange one aggregated message per ordered node pair over the NIC,
// and leaders scatter the received blocks to their local ranks. This
// replaces the k-1 per-rank NIC messages of the flat pairwise exchange
// with one large transfer per node pair, which is what amortizes the NIC
// latency floor on hybrid shapes. Same-node blocks are exchanged
// directly over the fabric as in the flat algorithm. Layouts without the
// hierarchy fall back to the flat exchange.
func (c *Comm) AllToAllHier(p *sim.Proc, send, recv *shmem.Symm, cnt int) {
	c.allToAllHier(p, send, recv, cnt, 0, cnt)
}

// allToAllHier is the hierarchical exchange over one sub-block per
// destination (see AllToAllSub for the addressing).
func (c *Comm) allToAllHier(p *sim.Proc, send, recv *shmem.Symm, stride, off, cnt int) {
	groups, ok := c.hierGroups()
	if !ok {
		c.allToAllFlat(p, send, recv, stride, off, cnt)
		return
	}
	k := len(c.pes)
	bytes := float64(cnt) * 4
	nodeOf := make([]int, k)
	for g, ranks := range groups {
		for _, r := range ranks {
			nodeOf[r] = g
		}
	}
	leader := func(g int) int { return groups[g][0] }
	remoteRanks := k - len(groups[0])

	// Phase 1 — pack + local exchange: each rank exchanges same-node
	// blocks directly over the fabric and forwards its remote-node
	// blocks to the node leader (leaders already hold theirs).
	p.ForkJoin(k, "a2a.hier.pack", func(rp *sim.Proc, s int) {
		c.launchRank(rp, s)
		// Local block: read + write on own HBM.
		c.dev(s).HBM().Transfer(rp, 2*bytes, 0)
		for _, d := range groups[nodeOf[s]] {
			if d != s {
				c.copyPair(rp, s, d, bytes)
			}
		}
		if s != leader(nodeOf[s]) && remoteRanks > 0 {
			c.copyPair(rp, s, leader(nodeOf[s]), float64(remoteRanks)*bytes)
		}
	})

	// Phase 2 — one aggregated transfer per ordered node pair between
	// leaders; all pairs concurrent, sharing the per-node NICs.
	type pair struct{ a, b int }
	var pairs []pair
	for a := range groups {
		for b := range groups {
			if a != b {
				pairs = append(pairs, pair{a, b})
			}
		}
	}
	p.ForkJoin(len(pairs), "a2a.hier.net", func(pp *sim.Proc, i int) {
		pr := pairs[i]
		payload := float64(len(groups[pr.a])*len(groups[pr.b])) * bytes
		c.copyPair(pp, leader(pr.a), leader(pr.b), payload)
	})

	// Phase 3 — scatter: leaders deliver each local rank its blocks
	// received from remote nodes.
	p.ForkJoin(k, "a2a.hier.scatter", func(rp *sim.Proc, s int) {
		if s == leader(nodeOf[s]) || remoteRanks == 0 {
			return
		}
		c.copyPair(rp, leader(nodeOf[s]), s, float64(remoteRanks)*bytes)
	})

	c.applyAllToAll(send, recv, stride, off, cnt)
}
