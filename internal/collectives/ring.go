package collectives

import (
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

// AllReduceRing is the classic bandwidth-optimal ring algorithm
// (reduce-scatter around the ring, then all-gather): 2(k-1) steps each
// moving ~n/k elements to the next rank. RCCL selects rings for larger
// rank counts or non-fully-connected topologies; here it also serves as
// the comparison point for the two-phase direct algorithm the fused
// operators use (§III-B cites direct as lower latency for fully
// connected GPUs).
func (c *Comm) AllReduceRing(p *sim.Proc, data *shmem.Symm, off, n int) {
	k := len(c.pes)
	if k == 1 {
		return
	}
	sums := c.snapshotSum(data, off, n)
	e := c.pl.E
	steps := 2 * (k - 1)
	// arrived[t][r] is set when the step-t transfer into rank r lands.
	arrived := make([][]sim.Flag, steps)
	for t := range arrived {
		arrived[t] = sim.NewFlags(e, k)
	}
	chunkBytes := func(idx int) float64 {
		lo, hi := c.shard(n, idx)
		return float64(hi-lo) * 4
	}
	mod := func(a int) int { return ((a % k) + k) % k }

	p.ForkJoin(k, "allreduce.ring", func(rp *sim.Proc, r int) {
		c.launchRank(rp, r)
		next := (r + 1) % k
		// Reduce-scatter: after step t, rank r has accumulated t+2
		// contributions into chunk mod(r-1-t).
		for t := 0; t < k-1; t++ {
			c.copyPair(rp, r, next, chunkBytes(mod(r-t)))
			arrived[t][next].Set(1)
			arrived[t][r].WaitGE(rp, 1)
			c.reduceLocal(rp, r, 1, chunkBytes(mod(r-1-t)))
		}
		// All-gather: circulate the fully-reduced chunks.
		for t := 0; t < k-1; t++ {
			g := k - 1 + t
			c.copyPair(rp, r, next, chunkBytes(mod(r+1-t)))
			arrived[g][next].Set(1)
			arrived[g][r].WaitGE(rp, 1)
			// Received chunk is stored as-is: read+write locally.
			c.dev(r).HBM().Transfer(rp, 2*chunkBytes(mod(r-t)), 0)
		}
	})
	c.writeAll(data, off, sums)
}
