// Package collectives is the bulk-synchronous baseline communication
// library the paper compares against (RCCL, §IV-A): host-launched
// collective kernels that move data with blit copies over the intra-node
// fabric or GPUDirect-RDMA transfers over the NIC. Each collective
// charges one kernel launch per rank, streams data through the links,
// and charges the memory traffic of intermediate buffering — the costs
// the fused zero-copy operators eliminate.
//
// Collectives are called from one coordinator process and internally run
// every rank concurrently; the call returns when all ranks finish. In
// functional mode the data transformation is applied exactly (reduction
// order: ascending rank), so tests can compare baseline and fused
// results.
package collectives

import (
	"fmt"

	"fusedcc/internal/gpu"
	"fusedcc/internal/netsim"
	"fusedcc/internal/platform"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

// DefaultProtocolOverhead is the per-rank fixed cost of one collective
// beyond the kernel launch: rendezvous, protocol setup, and completion
// synchronization. Library collectives on real systems have a latency
// floor of tens of microseconds for small payloads; this is the
// dominant term the fused operators eliminate on latency-bound shapes.
const DefaultProtocolOverhead = 12 * sim.Microsecond

// Comm is a communicator over a fixed set of PEs (global GPU ids).
type Comm struct {
	pl       *platform.Platform
	pes      []int
	protocol sim.Duration
	launch   sim.Duration // per-rank kernel-launch cost; <0 = device default
}

// SetProtocolOverhead overrides the per-collective fixed cost (for
// ablations; the default models an RCCL-class library).
func (c *Comm) SetProtocolOverhead(d sim.Duration) { c.protocol = d }

// SetLaunchOverhead overrides the per-rank collective kernel-launch
// cost. Chunk-scheduled collective chains (GC3-style) dispatch one
// persistent kernel for the whole chain, so chunks after the first pay
// only a flag poll instead of a fresh launch; they model that by
// setting a near-zero overhead here. A negative value restores the
// device default.
func (c *Comm) SetLaunchOverhead(d sim.Duration) { c.launch = d }

// New builds a communicator. The PE list order defines rank order.
func New(pl *platform.Platform, pes []int) *Comm {
	if len(pes) == 0 {
		panic("collectives: empty communicator")
	}
	seen := map[int]bool{}
	for _, pe := range pes {
		if pe < 0 || pe >= pl.NDevices() {
			panic(fmt.Sprintf("collectives: PE %d out of range", pe))
		}
		if seen[pe] {
			panic(fmt.Sprintf("collectives: duplicate PE %d", pe))
		}
		seen[pe] = true
	}
	return &Comm{pl: pl, pes: append([]int(nil), pes...), protocol: DefaultProtocolOverhead, launch: -1}
}

// Size returns the rank count.
func (c *Comm) Size() int { return len(c.pes) }

// PE returns the global GPU id of a rank.
func (c *Comm) PE(rank int) int { return c.pes[rank] }

// dev returns the device of a rank.
func (c *Comm) dev(rank int) *gpu.Device { return c.pl.Device(c.pes[rank]) }

// launchRank charges one collective-kernel launch plus the library
// protocol overhead on a rank.
func (c *Comm) launchRank(rp *sim.Proc, rank int) {
	l := c.launch
	if l < 0 {
		l = c.dev(rank).Config().KernelLaunchOverhead
	}
	rp.Sleep(l + c.protocol)
}

// copyPair moves bytes from rank src to rank dst, blocking rp. Same-node
// pairs ride the fabric blit path; cross-node pairs ride GPUDirect RDMA
// over the NIC network. Memory traffic at both endpoints is charged
// asynchronously so concurrent compute kernels feel the contention.
func (c *Comm) copyPair(rp *sim.Proc, src, dst int, bytes float64) {
	if src == dst || bytes <= 0 {
		return
	}
	sPE, dPE := c.pes[src], c.pes[dst]
	c.pl.Device(sPE).HBM().TransferAsync(bytes, 0, nil)
	c.pl.Device(dPE).HBM().TransferAsync(bytes, 0, nil)
	if c.pl.SameNode(sPE, dPE) {
		c.pl.FabricOf(sPE).Copy(rp, c.pl.LocalIdx(sPE), c.pl.LocalIdx(dPE), bytes)
		return
	}
	net := c.pl.Network()
	if net == nil {
		panic("collectives: cross-node copy without a network")
	}
	netsim.Send(rp, net, c.pl.NodeOf(sPE), c.pl.NodeOf(dPE), bytes)
}

// toPeers copies bytes(d) from rank r to every other rank d at once,
// one process per peer in ring order from r+1, and blocks rp until
// every copy lands.
func (c *Comm) toPeers(rp *sim.Proc, r int, name string, bytes func(d int) float64) {
	k := len(c.pes)
	rp.ForkJoin(k-1, name, func(pp *sim.Proc, j int) {
		d := (r + 1 + j) % k
		c.copyPair(pp, r, d, bytes(d))
	})
}

// reduceLocal charges the memory traffic of reducing k shard copies of
// shardBytes into one on a rank's device (reads k+1 copies, writes one).
func (c *Comm) reduceLocal(rp *sim.Proc, rank int, k int, shardBytes float64) {
	if k <= 0 {
		return
	}
	c.dev(rank).HBM().Transfer(rp, float64(k+2)*shardBytes, 0)
}

// shard returns the element range [lo,hi) of rank r's shard of n
// elements split across all ranks.
func (c *Comm) shard(n, r int) (lo, hi int) {
	k := len(c.pes)
	per := (n + k - 1) / k
	lo = r * per
	hi = lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return
}

// AllToAllFlat exchanges cnt elements between every pair of ranks:
// send[d*cnt:(d+1)*cnt] on rank s lands at recv[s*cnt:(s+1)*cnt] on rank
// d (including the local s==d block, which is a device-local copy).
//
// The schedule is the textbook pairwise exchange: k-1 sequential rounds
// in which rank s sends to (s+r) mod k — each round saturates one link
// per rank, which is how library All-to-Alls behave and why their
// effective bandwidth trails the fused fine-grained stores that keep
// every link busy for the whole kernel.
func (c *Comm) AllToAllFlat(p *sim.Proc, send, recv *shmem.Symm, cnt int) {
	c.allToAllFlat(p, send, recv, cnt, 0, cnt)
}

// allToAllFlat is the pairwise exchange over one sub-block per
// destination: rank s's send[d*stride+off : +cnt] lands at rank d's
// recv[s*stride+off]. AllToAllFlat is the off=0, cnt=stride case.
func (c *Comm) allToAllFlat(p *sim.Proc, send, recv *shmem.Symm, stride, off, cnt int) {
	k := len(c.pes)
	bytes := float64(cnt) * 4
	p.ForkJoin(k, "alltoall", func(rp *sim.Proc, s int) {
		c.launchRank(rp, s)
		// Local block: read + write on own HBM.
		c.dev(s).HBM().Transfer(rp, 2*bytes, 0)
		for step := 1; step < k; step++ {
			c.copyPair(rp, s, (s+step)%k, bytes)
		}
	})
	c.applyAllToAll(send, recv, stride, off, cnt)
}

// applyAllToAll performs the functional All-to-All permutation over one
// sub-block per destination — shared by every algorithm, so all of them
// produce identical results.
func (c *Comm) applyAllToAll(send, recv *shmem.Symm, stride, off, cnt int) {
	k := len(c.pes)
	for s := 0; s < k; s++ {
		for d := 0; d < k; d++ {
			recv.On(c.pes[d]).CopyWithin(s*stride+off, send.On(c.pes[s]), d*stride+off, cnt)
		}
	}
}

// AllReduceDirect is the two-phase direct algorithm for fully-connected
// ranks (§III-B): reduce-scatter (every rank receives its shard from all
// peers and reduces it) then all-gather (every rank broadcasts its
// reduced shard). In-place over data[off:off+n] on every rank.
func (c *Comm) AllReduceDirect(p *sim.Proc, data *shmem.Symm, off, n int) {
	k := len(c.pes)
	if k == 1 {
		return
	}
	sums := c.snapshotSum(data, off, n)
	p.ForkJoin(k, "allreduce.direct", func(rp *sim.Proc, r int) {
		c.launchRank(rp, r)
		lo, hi := c.shard(n, r)
		shardBytes := float64(hi-lo) * 4
		// Phase 1: send my copy of every peer shard to its owner...
		c.toPeers(rp, r, "ar.rs", func(d int) float64 {
			dlo, dhi := c.shard(n, d)
			return float64(dhi-dlo) * 4
		})
		// ...reduce the k-1 received copies with my own.
		c.reduceLocal(rp, r, k-1, shardBytes)
		// Phase 2: broadcast my reduced shard.
		c.toPeers(rp, r, "ar.ag", func(int) float64 { return shardBytes })
	})
	c.writeAll(data, off, sums)
}

// ReduceScatter runs phase 1 of the direct algorithm: afterwards rank r
// holds the fully reduced shard r of data[off:off+n]; other regions are
// left untouched.
func (c *Comm) ReduceScatter(p *sim.Proc, data *shmem.Symm, off, n int) {
	k := len(c.pes)
	if k == 1 {
		return
	}
	sums := c.snapshotSum(data, off, n)
	p.ForkJoin(k, "reducescatter", func(rp *sim.Proc, r int) {
		c.launchRank(rp, r)
		lo, hi := c.shard(n, r)
		c.toPeers(rp, r, "rs.pair", func(d int) float64 {
			dlo, dhi := c.shard(n, d)
			return float64(dhi-dlo) * 4
		})
		c.reduceLocal(rp, r, k-1, float64(hi-lo)*4)
	})
	for r := 0; r < k; r++ {
		lo, hi := c.shard(n, r)
		buf := data.On(c.pes[r])
		if buf.Functional() {
			copy(buf.Data()[off+lo:off+hi], sums[lo:hi])
		}
	}
}

// AllGather replicates rank r's shard of data[off:off+n] to every rank.
func (c *Comm) AllGather(p *sim.Proc, data *shmem.Symm, off, n int) {
	k := len(c.pes)
	if k == 1 {
		return
	}
	shards := make([][]float32, k)
	for r := 0; r < k; r++ {
		lo, hi := c.shard(n, r)
		buf := data.On(c.pes[r])
		if buf.Functional() {
			shards[r] = append([]float32(nil), buf.Data()[off+lo:off+hi]...)
		}
	}
	p.ForkJoin(k, "allgather", func(rp *sim.Proc, r int) {
		c.launchRank(rp, r)
		lo, hi := c.shard(n, r)
		shardBytes := float64(hi-lo) * 4
		c.toPeers(rp, r, "ag.pair", func(int) float64 { return shardBytes })
	})
	for r := 0; r < k; r++ {
		if shards[r] == nil {
			continue
		}
		lo, _ := c.shard(n, r)
		for d := 0; d < k; d++ {
			buf := data.On(c.pes[d])
			if buf.Functional() {
				copy(buf.Data()[off+lo:], shards[r])
			}
		}
	}
}

// snapshotSum captures the elementwise sum across ranks of
// data[off:off+n] (ascending rank order), or nil in timing mode.
func (c *Comm) snapshotSum(data *shmem.Symm, off, n int) []float32 {
	if !data.On(c.pes[0]).Functional() {
		return nil
	}
	sums := make([]float32, n)
	for _, pe := range c.pes {
		d := data.On(pe).Data()[off : off+n]
		for i, v := range d {
			sums[i] += v
		}
	}
	return sums
}

// writeAll stores sums into data[off:] on every rank (functional mode).
func (c *Comm) writeAll(data *shmem.Symm, off int, sums []float32) {
	if sums == nil {
		return
	}
	for _, pe := range c.pes {
		buf := data.On(pe)
		if buf.Functional() {
			copy(buf.Data()[off:off+len(sums)], sums)
		}
	}
}
