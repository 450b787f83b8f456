// Package netsim models the scale-out network between nodes: NICs with
// GPUDirect-RDMA-style transfer engines, a point-to-point InfiniBand
// configuration for the two-node experiments (Table I: 20 GB/s), and a
// 2D-torus topology for the 128-node DLRM simulations (Table II:
// 200 Gb/s links, 700 ns per hop).
//
// Reliable in-order delivery per (src,dst) pair is provided by Channel,
// the analogue of an RDMA queue pair: GPU-initiated puts posted to a
// channel are transferred serially in post order, which is what makes a
// fence-then-flag sequence (put data, fence, put flag) correct.
package netsim

import (
	"fmt"
	"slices"

	"fusedcc/internal/sim"
)

// Network is a topology that can route bytes between nodes: the
// blocking, whole-path view that Send and Channel use.
type Network interface {
	// Path returns the directed link sequence from src to dst and the
	// total propagation latency. src == dst returns (nil, 0). The slice
	// may alias the topology's own tables: callers only read it.
	Path(src, dst int) ([]*sim.Resource, sim.Duration)
}

// DirectedLink pairs a directed inter-node link with its serializing
// resource — the unit fault injection degrades and health monitoring
// samples. To is -1 when the resource serializes all of From's
// outbound traffic (a shared injection NIC).
type DirectedLink struct {
	From, To int
	Res      *sim.Resource
}

// LinkEnumerator is implemented by topologies that can enumerate their
// serializing link resources in a deterministic order.
type LinkEnumerator interface {
	Links() []DirectedLink
}

// LatencyScaler is implemented by topologies whose per-node propagation
// latency can be degraded at runtime (fault injection). Scales must be
// >= 1: faults only ever slow a link, so a hop latency never drops
// below the nominal one a sharded world's lookahead was computed from.
type LatencyScaler interface {
	SetLatencyScale(node int, f float64)
}

// Hop is one link traversal of a routed path: serialize on Link (owned
// by node From's shard), then pay Latency to propagate to node To.
type Hop struct {
	From, To int
	Link     *sim.Resource
	Latency  sim.Duration
}

// Router is a topology that exposes per-hop routes, the shard-aware
// transfer path: each hop's serialization runs on the link owner's
// shard and the hop latency is the cross-shard propagation delay.
type Router interface {
	// Route appends the hop sequence from src to dst to hops and
	// returns the extended slice (nothing is appended when
	// src == dst), so a caller routing many pairs reuses one buffer.
	Route(hops []Hop, src, dst int) []Hop
}

// Send moves one message store-and-forward along the path from src to
// dst, blocking the calling process. Each hop's serialization shares that
// link fairly with competing traffic. The full path latency is charged
// up front; Scatter is the hop-accurate (and shard-safe) variant.
func Send(p *sim.Proc, n Network, src, dst int, bytes float64) {
	links, lat := n.Path(src, dst)
	p.Sleep(lat)
	for _, l := range links {
		l.Transfer(p, bytes, 0)
	}
}

// Scatter sends bytes from src to every node in dsts, hop by hop and
// without blocking the caller. The routes from src form a tree: hops
// that cross the same link to the same node merge while the routes
// agree. Each tree edge serializes through its link (fair-shared with
// competing traffic, on the shard owning the link) as one flow weighted
// by the messages routed through it, then pays the hop latency once as
// the propagation delay into the next node's shard — exactly the
// cross-shard message delay the conservative engine's lookahead bounds,
// so the tree never violates causality. At an edge's far end the
// messages that end there are delivered and the child edges start.
// onDelivered (optional) runs once per dsts entry, with that entry, on
// its node's shard when the last byte arrives; an entry equal to src is
// delivered before Scatter returns. The caller must execute on src's
// shard.
//
// Under processor sharing, messages from one source that enter a link
// at the same instant with the same size cannot be told apart: they
// complete, propagate and arrive together. So every delivery instant
// equals that of one message per destination, each serializing and
// propagating hop by hop on its own, while the events of a scatter grow
// with the tree's edges instead of the routes' hops
// (sim.Resource.TransferAsyncN keeps the link's arithmetic identical).
// Total uncontended delivery time equals Send's (sum of hop latencies
// plus per-hop serializations); under contention the two differ only
// in when each hop's serialization overlaps competing flows.
//
// The routes, hop latencies included, are fixed at send time.
func Scatter(w sim.World, r Router, src int, dsts []int, bytes float64, onDelivered func(dst int)) {
	t := &routeTree{w: w, bytes: bytes, onDelivered: onDelivered,
		edges: make([]treeEdge, 1, len(dsts)+1)}
	t.edges[0] = treeEdge{t: t, hop: Hop{From: src, To: src}, child: -1, sibling: -1}
	hops := make([]Hop, 0, 16) // every route's buffer; Route grows it if need be
	for _, dst := range dsts {
		hops = r.Route(hops[:0], src, dst)
		t.insert(hops)
	}
	for i := 1; i < len(t.edges); i++ {
		e := &t.edges[i]
		e.serialized, e.arrived = e.propagate, e.arrive
	}
	t.edges[0].arrive()
}

// routeTree is one Scatter in flight: the union of its routes, an edge
// per distinct route prefix, with children and siblings linked by index
// (-1 ends a list). Edge 0 is the root: it crosses no link and ends at
// the source, so arriving there delivers the entries equal to src and
// starts the first hops. The edges are read-only once the tree is
// built, so the shards that run its edges share it without
// synchronization.
type routeTree struct {
	w           sim.World
	bytes       float64
	onDelivered func(dst int)
	edges       []treeEdge
}

// treeEdge is one hop of a route tree, carrying every message whose
// route starts with the path to it.
type treeEdge struct {
	t          *routeTree
	hop        Hop
	n          int    // messages through the hop: the flow's weight
	ends       int    // messages delivered at hop.To
	child      int32  // first edge out of hop.To
	sibling    int32  // next edge out of hop.From
	serialized func() // e.propagate, bound once
	arrived    func() // e.arrive, bound once
}

// insert adds one message's route, merging its prefix with the routes
// already in the tree.
func (t *routeTree) insert(hops []Hop) {
	at := int32(0)
	for _, h := range hops {
		at = t.childOn(at, h)
		t.edges[at].n++
	}
	t.edges[at].ends++
}

// childOn returns the edge out of parent's far end that crosses h's
// link to h.To, appending it as the last child when there is none yet.
func (t *routeTree) childOn(parent int32, h Hop) int32 {
	last := int32(-1)
	for c := t.edges[parent].child; c >= 0; c = t.edges[c].sibling {
		if e := &t.edges[c]; e.hop.Link == h.Link && e.hop.To == h.To {
			return c
		}
		last = c
	}
	c := int32(len(t.edges))
	t.edges = append(t.edges, treeEdge{t: t, hop: h, child: -1, sibling: -1})
	if last >= 0 {
		t.edges[last].sibling = c
	} else {
		t.edges[parent].child = c
	}
	return c
}

// start serializes edge first and its siblings, each through its link
// as one flow per message it carries.
func (t *routeTree) start(first int32) {
	for c := first; c >= 0; c = t.edges[c].sibling {
		e := &t.edges[c]
		e.hop.Link.TransferAsyncN(t.bytes, e.n, e.serialized)
	}
}

// propagate runs when the edge's link has serialized its messages: it
// pays the hop latency into the far end's shard.
func (e *treeEdge) propagate() {
	e.t.w.Post(e.hop.From, e.hop.To, e.hop.Latency, e.arrived)
}

// arrive runs at the edge's far end: it delivers the messages that end
// there and starts the child edges.
func (e *treeEdge) arrive() {
	t := e.t
	if t.onDelivered != nil {
		for range e.ends {
			t.onDelivered(e.hop.To)
		}
	}
	t.start(e.child)
}

// PointToPoint is a full mesh of NIC-to-NIC connections: each node has a
// NIC with the given injection bandwidth, and a message src->dst is
// serialized through the source NIC (symmetric traffic makes the
// receiver side equivalent). This is the two-node InfiniBand setup of
// Table I.
type PointToPoint struct {
	nodes   int
	latency sim.Duration
	nics    []*sim.Resource
	// latScale degrades per-node propagation latency (zero value = 1);
	// entries are >= 1.
	latScale []float64
}

// NewPointToPoint builds the mesh on engine e.
func NewPointToPoint(e *sim.Engine, nodes int, bytesPerSec float64, latency sim.Duration) *PointToPoint {
	if nodes < 1 {
		panic("netsim: need at least one node")
	}
	if bytesPerSec <= 0 {
		panic("netsim: NIC bandwidth must be positive")
	}
	pp := &PointToPoint{nodes: nodes, latency: latency, nics: make([]*sim.Resource, nodes)}
	for i := range pp.nics {
		pp.nics[i] = sim.NewResource(e, fmt.Sprintf("nic%d.tx", i), bytesPerSec, nil)
	}
	return pp
}

// Nodes returns the endpoint count.
func (pp *PointToPoint) Nodes() int { return pp.nodes }

// NIC exposes node i's injection resource.
func (pp *PointToPoint) NIC(i int) *sim.Resource { return pp.nics[i] }

// Links implements LinkEnumerator: one entry per injection NIC (a NIC
// serializes all of its node's outbound traffic, so To is -1).
func (pp *PointToPoint) Links() []DirectedLink {
	ls := make([]DirectedLink, pp.nodes)
	for i, nic := range pp.nics {
		ls[i] = DirectedLink{From: i, To: -1, Res: nic}
	}
	return ls
}

// SetLatencyScale implements LatencyScaler: messages injected by node
// scale their propagation latency by f (>= 1).
func (pp *PointToPoint) SetLatencyScale(node int, f float64) {
	if f < 1 {
		panic("netsim: latency scale must be >= 1 (faults only slow links)")
	}
	if pp.latScale == nil {
		pp.latScale = make([]float64, pp.nodes)
	}
	pp.latScale[node] = f
}

// srcLatency returns src's (possibly degraded) one-way latency.
func (pp *PointToPoint) srcLatency(src int) sim.Duration {
	if pp.latScale == nil || pp.latScale[src] == 0 || pp.latScale[src] == 1 {
		return pp.latency
	}
	return sim.Duration(float64(pp.latency) * pp.latScale[src])
}

// Path implements Network: src's NIC, without allocating.
func (pp *PointToPoint) Path(src, dst int) ([]*sim.Resource, sim.Duration) {
	if src == dst {
		return nil, 0
	}
	return pp.nics[src : src+1 : src+1], pp.srcLatency(src)
}

// Torus2D is a width x height torus with directed neighbor links and
// dimension-ordered (X then Y) routing.
type Torus2D struct {
	w, h   int
	hopLat sim.Duration
	// links[n][dir] is node n's directed link to its neighbor in
	// direction dir (see torusDir). On a 2-wide ring the two directions
	// of that dimension reach the same neighbor and share one link.
	links [][4]*sim.Resource
	// latScale degrades the hop latency of links owned (injected) by a
	// node (zero value = 1); entries are >= 1.
	latScale []float64
}

// torusDir indexes a node's four neighbor links.
type torusDir int

const (
	xPlus torusDir = iota
	xMinus
	yPlus
	yMinus
)

// NewTorus2D builds the torus. bytesPerSec is per directed link
// (Table II: 200 Gb/s = 25 GB/s), hopLat per traversed hop (700 ns).
// Each directed link a->b lives on node a's shard engine, so hop
// serialization always runs where the sending side executes.
func NewTorus2D(wld sim.World, w, h int, bytesPerSec float64, hopLat sim.Duration) *Torus2D {
	if w < 2 || h < 2 {
		panic("netsim: torus needs w,h >= 2")
	}
	if bytesPerSec <= 0 {
		panic("netsim: torus link bandwidth must be positive")
	}
	t := &Torus2D{w: w, h: h, hopLat: hopLat, links: make([][4]*sim.Resource, w*h)}
	for n := range t.links {
		for dir, m := range t.neighbors(n) {
			if alias, ok := t.alias(torusDir(dir)); ok {
				t.links[n][dir] = t.links[n][alias]
				continue
			}
			t.links[n][dir] = sim.NewResource(wld.EngineFor(n), fmt.Sprintf("torus.%d->%d", n, m), bytesPerSec, nil)
		}
	}
	return t
}

// neighbors returns node n's neighbor in each direction.
func (t *Torus2D) neighbors(n int) [4]int {
	x, y := t.Coord(n)
	return [4]int{
		xPlus:  t.ID((x+1)%t.w, y),
		xMinus: t.ID((x-1+t.w)%t.w, y),
		yPlus:  t.ID(x, (y+1)%t.h),
		yMinus: t.ID(x, (y-1+t.h)%t.h),
	}
}

// alias reports the direction whose link dir shares: the positive one of
// a 2-wide ring's dimension.
func (t *Torus2D) alias(dir torusDir) (torusDir, bool) {
	switch {
	case dir == xMinus && t.w == 2:
		return xPlus, true
	case dir == yMinus && t.h == 2:
		return yPlus, true
	}
	return 0, false
}

// Nodes returns the endpoint count.
func (t *Torus2D) Nodes() int { return t.w * t.h }

// Dims returns the torus dimensions.
func (t *Torus2D) Dims() (w, h int) { return t.w, t.h }

// ID maps coordinates to a node id.
func (t *Torus2D) ID(x, y int) int { return y*t.w + x }

// Coord maps a node id to coordinates.
func (t *Torus2D) Coord(id int) (x, y int) { return id % t.w, id / t.w }

// Link exposes the directed neighbor link a->b.
func (t *Torus2D) Link(a, b int) *sim.Resource {
	if a >= 0 && a < len(t.links) {
		for dir, m := range t.neighbors(a) {
			if m == b {
				return t.links[a][dir]
			}
		}
	}
	panic(fmt.Sprintf("netsim: %d->%d is not a torus neighbor link", a, b))
}

// Links implements LinkEnumerator: every directed neighbor link in
// deterministic (row-major source, +x/-x/+y/-y) order, each shared link
// once.
func (t *Torus2D) Links() []DirectedLink {
	ls := make([]DirectedLink, 0, len(t.links)*4)
	for n := range t.links {
		for dir, m := range t.neighbors(n) {
			if _, ok := t.alias(torusDir(dir)); !ok {
				ls = append(ls, DirectedLink{From: n, To: m, Res: t.links[n][dir]})
			}
		}
	}
	return ls
}

// SetLatencyScale implements LatencyScaler: hops injected by node scale
// their propagation latency by f (>= 1).
func (t *Torus2D) SetLatencyScale(node int, f float64) {
	if f < 1 {
		panic("netsim: latency scale must be >= 1 (faults only slow links)")
	}
	if t.latScale == nil {
		t.latScale = make([]float64, t.w*t.h)
	}
	t.latScale[node] = f
}

// hopLatency returns the (possibly degraded) latency of a hop injected
// by node from.
func (t *Torus2D) hopLatency(from int) sim.Duration {
	if t.latScale == nil || t.latScale[from] == 0 || t.latScale[from] == 1 {
		return t.hopLat
	}
	return sim.Duration(float64(t.hopLat) * t.latScale[from])
}

// RingX returns the node ids of the X-dimension ring through node id.
func (t *Torus2D) RingX(id int) []int {
	_, y := t.Coord(id)
	ring := make([]int, t.w)
	for x := 0; x < t.w; x++ {
		ring[x] = t.ID(x, y)
	}
	return ring
}

// RingY returns the node ids of the Y-dimension ring through node id.
func (t *Torus2D) RingY(id int) []int {
	x, _ := t.Coord(id)
	ring := make([]int, t.h)
	for y := 0; y < t.h; y++ {
		ring[y] = t.ID(x, y)
	}
	return ring
}

// Path implements Network with dimension-ordered routing and shortest
// wraparound direction per dimension.
func (t *Torus2D) Path(src, dst int) ([]*sim.Resource, sim.Duration) {
	hops := t.Route(nil, src, dst)
	if len(hops) == 0 {
		return nil, 0
	}
	links := make([]*sim.Resource, len(hops))
	var lat sim.Duration
	for i, h := range hops {
		links[i] = h.Link
		lat += h.Latency
	}
	return links, lat
}

// Route implements Router: it appends the dimension-ordered hop
// sequence, X then Y in each dimension's shorter direction, each hop on
// its directed neighbor link.
func (t *Torus2D) Route(hops []Hop, src, dst int) []Hop {
	if src == dst {
		return hops
	}
	sx, sy := t.Coord(src)
	dx, dy := t.Coord(dst)
	x, y := sx, sy
	stepX := shortestStep(sx, dx, t.w)
	stepY := shortestStep(sy, dy, t.h)
	hops = slices.Grow(hops, ringHops(sx, dx, t.w, stepX)+ringHops(sy, dy, t.h, stepY))
	dirX, dirY := xPlus, yPlus
	if stepX < 0 {
		dirX = xMinus
	}
	if stepY < 0 {
		dirY = yMinus
	}
	for x != dx {
		nx := (x + stepX + t.w) % t.w
		a := t.ID(x, y)
		hops = append(hops, Hop{From: a, To: t.ID(nx, y), Link: t.links[a][dirX], Latency: t.hopLatency(a)})
		x = nx
	}
	for y != dy {
		ny := (y + stepY + t.h) % t.h
		a := t.ID(x, y)
		hops = append(hops, Hop{From: a, To: t.ID(x, ny), Link: t.links[a][dirY], Latency: t.hopLatency(a)})
		y = ny
	}
	return hops
}

// shortestStep returns -1 or +1: the ring direction with fewer hops from
// a to b in a ring of size n (ties go positive).
func shortestStep(a, b, n int) int {
	fwd := (b - a + n) % n
	if fwd <= n-fwd {
		return 1
	}
	return -1
}

// ringHops returns the hop count from a to b in a ring of size n, moving
// in direction step.
func ringHops(a, b, n, step int) int {
	return ((b-a)*step%n + n) % n
}
