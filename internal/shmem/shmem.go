// Package shmem provides GPU-initiated intra-kernel communication in the
// style of ROC_SHMEM / NVSHMEM (paper §II-B): a symmetric heap across
// processing elements (PEs, one per GPU), non-blocking puts, fences and
// waitable flags — all callable from inside simulated kernels through a
// workgroup context.
//
// Like every workgroup operation (see gpu.WG), a primitive records its
// work on the workgroup rather than doing it at the call: its API cost
// is a charge, and its side effects (posting a put, issuing stores,
// raising a flag) and its waits (fences, flag waits) take effect when
// the workgroup's earlier charges complete. Values handed over in
// registers are read at that instant too, so they may be produced by an
// earlier WG.Then.
//
// Two data paths exist, matching the paper:
//
//   - Scale-out (different nodes): PutNbi posts a message on an ordered
//     per-PE-pair channel (an RDMA queue pair over the NIC). Delivery is
//     asynchronous; ordering within a pair makes put-fence-flag correct.
//   - Scale-up (same node): StoreRemote streams native stores over the
//     fabric directly into the peer's memory, asynchronously; a store
//     fence waits for them — the zero-copy path with no intermediate
//     buffering.
package shmem

import (
	"fmt"

	"fusedcc/internal/gpu"
	"fusedcc/internal/netsim"
	"fusedcc/internal/platform"
	"fusedcc/internal/sim"
)

// Config sets the overhead constants of the GPU-initiated API (§III-C:
// "API latency" and book-keeping costs).
type Config struct {
	// PutAPIOverhead is the workgroup-side cost of issuing one
	// non-blocking put (building the descriptor, ringing the doorbell).
	PutAPIOverhead sim.Duration
	// FlagAPIOverhead is the workgroup-side cost of a flag update.
	FlagAPIOverhead sim.Duration
	// ChannelOverhead is the per-message processing cost on the
	// transfer engine.
	ChannelOverhead sim.Duration
}

// DefaultConfig mirrors the ROC_SHMEM v1.6 costs assumed in DESIGN.md §4.
func DefaultConfig() Config {
	return Config{
		PutAPIOverhead:  200 * sim.Nanosecond,
		FlagAPIOverhead: 100 * sim.Nanosecond,
		ChannelOverhead: 300 * sim.Nanosecond,
	}
}

// World is a communication world spanning every GPU of a platform.
type World struct {
	pl    *platform.Platform
	cfg   Config
	chans map[[2]int]*netsim.Channel
	// stores[srcPE*NPEs+dstPE][phys] counts physical WG phys's
	// outstanding native stores from srcPE to dstPE; counters are built
	// lazily and live as long as the world.
	stores [][]*sim.Flag
}

// NewWorld attaches a world to a platform.
func NewWorld(pl *platform.Platform, cfg Config) *World {
	return &World{
		pl:     pl,
		cfg:    cfg,
		chans:  make(map[[2]int]*netsim.Channel),
		stores: make([][]*sim.Flag, pl.NDevices()*pl.NDevices()),
	}
}

// Platform returns the underlying hardware.
func (w *World) Platform() *platform.Platform { return w.pl }

// Config returns the world's API overhead constants (for quasi-static
// cost estimates that price puts and flag updates without issuing them).
func (w *World) Config() Config { return w.cfg }

// NPEs returns the PE count (== GPU count).
func (w *World) NPEs() int { return w.pl.NDevices() }

// Route classifies the data path from srcPE to dstPE: RouteLocal (same
// device), RouteFabric (same-node peer — the zero-copy native-store
// path), or RouteNIC (cross-node RDMA put). Fused kernels on hybrid
// clusters must agree with this classification: native stores along a
// RouteNIC pair panic (impossible on hardware), puts along a RouteFabric
// pair ride the fabric channel.
func (w *World) Route(srcPE, dstPE int) Route {
	switch {
	case srcPE == dstPE:
		return RouteLocal
	case w.pl.SameNode(srcPE, dstPE):
		return RouteFabric
	default:
		return RouteNIC
	}
}

// Route is a data-path class between two PEs.
type Route int

const (
	// RouteLocal is a device-local copy.
	RouteLocal Route = iota
	// RouteFabric is the same-node scale-up path (native stores / blits).
	RouteFabric
	// RouteNIC is the cross-node scale-out path (RDMA over the NIC).
	RouteNIC
)

func (r Route) String() string {
	switch r {
	case RouteLocal:
		return "local"
	case RouteFabric:
		return "fabric"
	default:
		return "nic"
	}
}

// channel returns (building lazily) the ordered channel from srcPE to
// dstPE. Cross-node pairs ride the NIC network; same-node pairs ride the
// node's fabric, which is a netsim.Network itself.
func (w *World) channel(srcPE, dstPE int) *netsim.Channel {
	key := [2]int{srcPE, dstPE}
	if c, ok := w.chans[key]; ok {
		return c
	}
	var c *netsim.Channel
	if w.pl.SameNode(srcPE, dstPE) {
		f := w.pl.FabricOf(srcPE)
		if f == nil {
			panic(fmt.Sprintf("shmem: no fabric for same-node put %d->%d", srcPE, dstPE))
		}
		c = netsim.NewChannel(w.pl.E, f, w.pl.LocalIdx(srcPE), w.pl.LocalIdx(dstPE), w.cfg.ChannelOverhead)
	} else {
		net := w.pl.Network()
		if net == nil {
			panic(fmt.Sprintf("shmem: no network for cross-node put %d->%d", srcPE, dstPE))
		}
		c = netsim.NewChannel(w.pl.E, net, w.pl.NodeOf(srcPE), w.pl.NodeOf(dstPE), w.cfg.ChannelOverhead)
	}
	w.chans[key] = c
	return c
}

// Symm is a symmetric-heap allocation: one buffer of identical shape per
// PE, registered for remote access (the roc_shmem_malloc analogue).
type Symm struct {
	w    *World
	n    int
	bufs []*gpu.Buffer
}

// Malloc allocates n float32 elements on every PE's symmetric heap.
func (w *World) Malloc(n int) *Symm {
	s := &Symm{w: w, n: n, bufs: make([]*gpu.Buffer, w.NPEs())}
	for pe := range s.bufs {
		s.bufs[pe] = w.pl.Device(pe).Alloc(n)
	}
	return s
}

// Len returns the per-PE element count.
func (s *Symm) Len() int { return s.n }

// On returns the buffer instance on a PE.
func (s *Symm) On(pe int) *gpu.Buffer { return s.bufs[pe] }

// Flags is a symmetric array of waitable flags, one set per PE.
type Flags struct {
	w     *World
	flags [][]sim.Flag
}

// MallocFlags allocates count flags on every PE, one allocation per PE
// whatever the count.
func (w *World) MallocFlags(count int) *Flags {
	f := &Flags{w: w, flags: make([][]sim.Flag, w.NPEs())}
	for pe := range f.flags {
		f.flags[pe] = sim.NewFlags(w.pl.E, count)
	}
	return f
}

// On returns flag idx on a PE (for host-side inspection).
func (f *Flags) On(pe, idx int) *sim.Flag { return &f.flags[pe][idx] }

// WaitGE blocks the workgroup until the *local* flag idx reaches v —
// the roc_shmem_wait_until(..., GE, v) analogue.
func (f *Flags) WaitGE(wg *gpu.WG, idx int, v int64) {
	wg.WaitGE(&f.flags[wg.Dev.ID()][idx], v)
}

// landing returns the function that copies rows of rowLen elements from
// src at srcOff (srcStride apart) to dst at dstOff (dstStride apart), or
// nil when either side is timing-only and there is nothing to copy.
func landing(dst *gpu.Buffer, dstOff, dstStride int, src *gpu.Buffer, srcOff, srcStride, rows, rowLen int) func() {
	if !dst.Functional() || !src.Functional() {
		return nil
	}
	return func() {
		for r := 0; r < rows; r++ {
			dst.CopyWithin(dstOff+r*dstStride, src, srcOff+r*srcStride, rowLen)
		}
	}
}

// valueLanding returns the function that lands a snapshot of register
// values as rows in dst, and the function that takes the snapshot from
// vals; both are nil when there is nothing to copy (timing mode).
func valueLanding(dst *gpu.Buffer, dstOff, dstStride int, vals []float32, rows, rowLen int) (snapshot, land func()) {
	if vals == nil || !dst.Functional() {
		return nil, nil
	}
	var snap []float32
	snapshot = func() { snap = append(snap[:0], vals[:rows*rowLen]...) }
	land = func() {
		for r := 0; r < rows; r++ {
			copy(dst.Data()[dstOff+r*dstStride:dstOff+r*dstStride+rowLen], snap[r*rowLen:(r+1)*rowLen])
		}
	}
	return snapshot, land
}

// then records fn on wg unless it is nil.
func then(wg *gpu.WG, fn func()) {
	if fn != nil {
		wg.Then(fn)
	}
}

// post records a put of bytes from wg's PE to dstPE on the pair's
// ordered channel, issued once wg's earlier charges complete: the
// transfer engine reads the source out of local memory, and at delivery
// the destination memory is written and land (optional) runs.
func (w *World) post(wg *gpu.WG, dstPE int, bytes float64, land func()) {
	srcPE := wg.Dev.ID()
	wg.Then(func() {
		w.pl.Device(srcPE).HBM().TransferAsync(bytes, 0, nil)
		w.channel(srcPE, dstPE).Post(bytes, func() {
			w.pl.Device(dstPE).HBM().TransferAsync(bytes, 0, nil)
			if land != nil {
				land()
			}
		})
	})
}

// PutNbi issues a non-blocking put of n float32 from a local buffer into
// dst's instance of the symmetric allocation. The workgroup is charged
// the API overhead; the transfer proceeds on the pair's ordered channel
// and the data lands at delivery time. Source data is read at delivery
// (the producer must not overwrite it before a flag that orders it, as
// on hardware).
func (w *World) PutNbi(wg *gpu.WG, dstPE int, dst *Symm, dstOff int, src *gpu.Buffer, srcOff, n int) {
	w.PutNbiRows(wg, dstPE, dst, dstOff, 0, src, srcOff, 0, 1, n)
}

// PutNbiRows is PutNbi for a strided block: rows of rowLen elements,
// read from src at srcOff with srcStride, landing at dstOff with
// dstStride in dst's instance. The block travels as a single message —
// the point-to-point layout freedom the paper exploits to deliver
// All-to-All slices directly in the layout the interaction kernel wants
// (no shuffle kernel on the receiver).
func (w *World) PutNbiRows(wg *gpu.WG, dstPE int, dst *Symm, dstOff, dstStride int, src *gpu.Buffer, srcOff, srcStride, rows, rowLen int) {
	wg.Busy(w.cfg.PutAPIOverhead)
	if rows <= 0 || rowLen <= 0 {
		return
	}
	land := landing(dst.On(dstPE), dstOff, dstStride, src, srcOff, srcStride, rows, rowLen)
	if wg.Dev.ID() == dstPE {
		then(wg, land)
		return
	}
	// The transfer engine reads the staging buffer and the delivery
	// writes destination memory — intermediate-buffering traffic the
	// zero-copy store path avoids.
	w.post(wg, dstPE, float64(rows*rowLen)*4, land)
}

// PutFlagNbi posts a flag update on the same ordered channel as data
// puts, so it lands strictly after every put issued earlier to the same
// PE — the put+fence+flag idiom of the fused kernels collapses into
// this single call when the fence has nothing else to order.
func (w *World) PutFlagNbi(wg *gpu.WG, dstPE int, f *Flags, idx int, delta int64) {
	wg.Busy(w.cfg.FlagAPIOverhead)
	srcPE := wg.Dev.ID()
	target := &f.flags[dstPE][idx]
	if srcPE == dstPE {
		wg.Add(target, delta)
		return
	}
	wg.Then(func() { w.channel(srcPE, dstPE).Post(8, func() { target.Add(delta) }) })
}

// Fence orders prior puts to dstPE before subsequent ones. Channels
// already deliver in order, so the fence costs only its API overhead.
func (w *World) Fence(wg *gpu.WG) { wg.Busy(w.cfg.FlagAPIOverhead) }

// remoteStore records bytes of native stores from wg toward a same-node
// peer. Stores retire through write-combining buffers: the workgroup is
// charged only a small issue cost and proceeds; the bytes stream over
// the fabric asynchronously (at the lane-scaled per-WG store rate,
// sharing the link fairly) and land (optional) runs when the last byte
// arrives. Visibility is established by StoreFence / StoreRemoteFlag,
// which wait for the pair's outstanding stores — the
// fence-the-stores-then-flag idiom of the zero-copy fused kernels
// (§III-B).
func (w *World) remoteStore(wg *gpu.WG, dstPE int, bytes float64, land func()) {
	srcPE := wg.Dev.ID()
	if !w.pl.SameNode(srcPE, dstPE) {
		panic(fmt.Sprintf("shmem: native store across nodes (%d->%d); use PutNbi", srcPE, dstPE))
	}
	wg.Busy(w.cfg.FlagAPIOverhead) // store-issue cost
	cnt := w.storeInFlight(srcPE, dstPE, wg.PhysID)
	fab := w.pl.FabricOf(srcPE)
	rate := fab.Config().PerWGStoreBandwidth * float64(wg.Lanes)
	link := fab.Link(w.pl.LocalIdx(srcPE), w.pl.LocalIdx(dstPE))
	dstHBM := w.pl.Device(dstPE).HBM()
	lat := fab.Config().StoreLatency
	wg.Add(cnt, 1)
	wg.After(lat, func() {
		link.TransferAsync(bytes, rate, func() {
			dstHBM.TransferAsync(bytes, 0, nil)
			if land != nil {
				land()
			}
			cnt.Add(-1)
		})
	})
}

// storeInFlight returns the outstanding-store counter of physical WG
// phys's stream from srcPE to dstPE.
func (w *World) storeInFlight(srcPE, dstPE, phys int) *sim.Flag {
	pair := &w.stores[srcPE*w.NPEs()+dstPE]
	if phys >= len(*pair) {
		*pair = append(*pair, make([]*sim.Flag, phys+1-len(*pair))...)
	}
	cnt := (*pair)[phys]
	if cnt == nil {
		cnt = sim.NewFlag(w.pl.E)
		(*pair)[phys] = cnt
	}
	return cnt
}

// StoreFence blocks the workgroup until its own outstanding native
// stores to dstPE have become visible remotely (the cache-flush +
// wait-for-acks sequence of §II-B).
func (w *World) StoreFence(wg *gpu.WG, dstPE int) {
	srcPE := wg.Dev.ID()
	if srcPE == dstPE {
		return
	}
	wg.WaitEQ(w.storeInFlight(srcPE, dstPE, wg.PhysID), 0)
}

// StoreRemote streams n float32 as native stores from the workgroup
// directly into dst's instance of the symmetric allocation — the
// zero-copy scale-up path (§III-B). Same-PE stores are charged to local
// memory bandwidth; peer stores are issued fire-and-forget (see
// remoteStore). Cross-node stores are impossible on real hardware and
// panic here.
func (w *World) StoreRemote(wg *gpu.WG, dstPE int, dst *Symm, dstOff int, src *gpu.Buffer, srcOff, n int) {
	w.StoreRemoteRows(wg, dstPE, dst, dstOff, 0, src, srcOff, 0, 1, n)
}

// StoreRemoteRows is StoreRemote for a strided block (see PutNbiRows).
func (w *World) StoreRemoteRows(wg *gpu.WG, dstPE int, dst *Symm, dstOff, dstStride int, src *gpu.Buffer, srcOff, srcStride, rows, rowLen int) {
	if rows <= 0 || rowLen <= 0 {
		return
	}
	bytes := float64(rows*rowLen) * 4
	land := landing(dst.On(dstPE), dstOff, dstStride, src, srcOff, srcStride, rows, rowLen)
	if wg.Dev.ID() == dstPE {
		wg.Write(bytes)
		then(wg, land)
		return
	}
	w.remoteStore(wg, dstPE, bytes, land)
}

// StoreValuesRows stores register-resident values as rows of rowLen
// elements landing dstStride apart in dstPE's instance. vals holds
// rows*rowLen elements row-major (nil in timing mode); they are
// snapshotted when the workgroup's earlier charges complete, so an
// earlier Then may produce them and a later one may reuse the scratch.
func (w *World) StoreValuesRows(wg *gpu.WG, dstPE int, dst *Symm, dstOff, dstStride int, vals []float32, rows, rowLen int) {
	if rows <= 0 || rowLen <= 0 {
		return
	}
	bytes := float64(rows*rowLen) * 4
	snapshot, land := valueLanding(dst.On(dstPE), dstOff, dstStride, vals, rows, rowLen)
	then(wg, snapshot)
	if wg.Dev.ID() == dstPE {
		wg.Write(bytes)
		then(wg, land)
		return
	}
	w.remoteStore(wg, dstPE, bytes, land)
}

// StoreRemoteFlag sets a flag on a same-node peer with a native store,
// after fencing the pair's outstanding stores so the flag never becomes
// visible before the data it guards.
func (w *World) StoreRemoteFlag(wg *gpu.WG, dstPE int, f *Flags, idx int, delta int64) {
	wg.Busy(w.cfg.FlagAPIOverhead)
	srcPE := wg.Dev.ID()
	if srcPE != dstPE && !w.pl.SameNode(srcPE, dstPE) {
		panic(fmt.Sprintf("shmem: StoreRemoteFlag across nodes (%d->%d)", srcPE, dstPE))
	}
	w.StoreFence(wg, dstPE)
	wg.Add(&f.flags[dstPE][idx], delta)
}

// PutValuesRowsNbi posts register-resident values toward dstPE on the
// pair's ordered channel: rows of rowLen elements landing dstStride
// apart in dst's instance. The values are staged through a send buffer
// (charged as a workgroup write) and travel as one message — the
// scale-out counterpart of StoreValuesRows for results that exist only
// in registers. vals may be nil in timing mode; it is snapshotted once
// the API overhead is paid.
func (w *World) PutValuesRowsNbi(wg *gpu.WG, dstPE int, dst *Symm, dstOff, dstStride int, vals []float32, rows, rowLen int) {
	if rows <= 0 || rowLen <= 0 {
		return
	}
	wg.Busy(w.cfg.PutAPIOverhead)
	bytes := float64(rows*rowLen) * 4
	snapshot, land := valueLanding(dst.On(dstPE), dstOff, dstStride, vals, rows, rowLen)
	then(wg, snapshot)
	// Stage the registers into the send buffer (locally, the stores
	// themselves), then let the transfer engine read it back out.
	wg.Write(bytes)
	if wg.Dev.ID() == dstPE {
		then(wg, land)
		return
	}
	w.post(wg, dstPE, bytes, land)
}

// SendValuesRows delivers register-resident values to any PE over the
// best path the topology allows — zero-copy native stores within a
// node, ordered channel puts across nodes — and reports which route was
// taken. This is what lets one fused kernel run unchanged on scale-up,
// scale-out, and hybrid clusters.
func (w *World) SendValuesRows(wg *gpu.WG, dstPE int, dst *Symm, dstOff, dstStride int, vals []float32, rows, rowLen int) Route {
	route := w.Route(wg.Dev.ID(), dstPE)
	if route == RouteNIC {
		w.PutValuesRowsNbi(wg, dstPE, dst, dstOff, dstStride, vals, rows, rowLen)
	} else {
		w.StoreValuesRows(wg, dstPE, dst, dstOff, dstStride, vals, rows, rowLen)
	}
	return route
}

// SendValues is SendValuesRows for one contiguous run of n elements.
func (w *World) SendValues(wg *gpu.WG, dstPE int, dst *Symm, dstOff int, vals []float32, n int) Route {
	return w.SendValuesRows(wg, dstPE, dst, dstOff, 0, vals, 1, n)
}

// SendFlag raises a flag on any PE, ordered after this workgroup's
// earlier sends to that PE: a fenced native store within a node, a
// fence + ordered-channel put across nodes.
func (w *World) SendFlag(wg *gpu.WG, dstPE int, f *Flags, idx int, delta int64) {
	if w.Route(wg.Dev.ID(), dstPE) == RouteNIC {
		w.Fence(wg)
		w.PutFlagNbi(wg, dstPE, f, idx, delta)
		return
	}
	w.StoreRemoteFlag(wg, dstPE, f, idx, delta)
}
