package netsim

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"fusedcc/internal/sim"
)

func TestPointToPointSend(t *testing.T) {
	e := sim.NewEngine()
	net := NewPointToPoint(e, 2, 1e9, 2*sim.Microsecond)
	var end sim.Time
	e.Go("s", func(p *sim.Proc) {
		Send(p, net, 0, 1, 0.5e9)
		end = p.Now()
	})
	e.Run()
	want := sim.Time(500*sim.Millisecond + 2*sim.Microsecond)
	if d := end - want; d < -10 || d > 10 {
		t.Errorf("send done at %v, want ~%v", end, want)
	}
}

func TestPointToPointSelfPathEmpty(t *testing.T) {
	e := sim.NewEngine()
	net := NewPointToPoint(e, 2, 1e9, 2*sim.Microsecond)
	links, lat := net.Path(1, 1)
	if links != nil || lat != 0 {
		t.Error("self path must be free")
	}
}

// pathSink keeps Path's result live, so an allocating Path cannot be
// optimized onto the stack.
var pathSink []*sim.Resource

// TestPointToPointPathAllocatesNothing: a channel reads one path per
// message, so the NIC path is a view of the NIC table.
func TestPointToPointPathAllocatesNothing(t *testing.T) {
	e := sim.NewEngine()
	net := NewPointToPoint(e, 3, 1e9, 2*sim.Microsecond)
	links, lat := net.Path(2, 0)
	if len(links) != 1 || links[0] != net.NIC(2) || lat != 2*sim.Microsecond {
		t.Fatalf("Path(2, 0) = %v, %v; want [nic2.tx], 2us", links, lat)
	}
	if n := testing.AllocsPerRun(100, func() { pathSink, _ = net.Path(1, 2) }); n != 0 {
		t.Errorf("Path allocates %v objects per call, want 0", n)
	}
}

func TestPointToPointSharedNIC(t *testing.T) {
	// Two concurrent sends from node 0 share its NIC.
	e := sim.NewEngine()
	net := NewPointToPoint(e, 3, 1e9, 0)
	var end sim.Time
	for dst := 1; dst <= 2; dst++ {
		dst := dst
		e.Go("s", func(p *sim.Proc) {
			Send(p, net, 0, dst, 0.5e9)
			end = p.Now()
		})
	}
	e.Run()
	want := sim.Time(sim.Second)
	if d := end - want; d < -10 || d > 10 {
		t.Errorf("shared NIC sends done at %v, want ~%v", end, want)
	}
}

func TestTorusIDCoordRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	tor := NewTorus2D(e, 4, 8, 1e9, 700)
	for id := 0; id < tor.Nodes(); id++ {
		x, y := tor.Coord(id)
		if tor.ID(x, y) != id {
			t.Fatalf("roundtrip failed for %d", id)
		}
	}
	if tor.Nodes() != 32 {
		t.Errorf("nodes = %d, want 32", tor.Nodes())
	}
}

func TestTorusPathHopCount(t *testing.T) {
	e := sim.NewEngine()
	tor := NewTorus2D(e, 4, 4, 1e9, 700)
	cases := []struct {
		src, dst, hops int
	}{
		{tor.ID(0, 0), tor.ID(1, 0), 1},
		{tor.ID(0, 0), tor.ID(3, 0), 1}, // wraparound
		{tor.ID(0, 0), tor.ID(2, 0), 2},
		{tor.ID(0, 0), tor.ID(2, 2), 4},
		{tor.ID(1, 1), tor.ID(1, 1), 0},
	}
	for _, c := range cases {
		links, lat := tor.Path(c.src, c.dst)
		if len(links) != c.hops {
			t.Errorf("path %d->%d: %d hops, want %d", c.src, c.dst, len(links), c.hops)
		}
		if lat != sim.Duration(c.hops)*700 {
			t.Errorf("path %d->%d: latency %v, want %d hops x 700ns", c.src, c.dst, lat, c.hops)
		}
	}
}

func TestTorusRings(t *testing.T) {
	e := sim.NewEngine()
	tor := NewTorus2D(e, 4, 2, 1e9, 700)
	rx := tor.RingX(tor.ID(2, 1))
	if len(rx) != 4 {
		t.Fatalf("ringX len = %d", len(rx))
	}
	for x, id := range rx {
		if id != tor.ID(x, 1) {
			t.Errorf("ringX[%d] = %d", x, id)
		}
	}
	ry := tor.RingY(tor.ID(2, 1))
	if len(ry) != 2 {
		t.Fatalf("ringY len = %d", len(ry))
	}
}

func TestShortestStepDirection(t *testing.T) {
	if shortestStep(0, 1, 4) != 1 {
		t.Error("forward expected")
	}
	if shortestStep(0, 3, 4) != -1 {
		t.Error("wraparound expected")
	}
	if shortestStep(0, 2, 4) != 1 {
		t.Error("tie should go positive")
	}
}

func TestChannelOrderedDelivery(t *testing.T) {
	e := sim.NewEngine()
	net := NewPointToPoint(e, 2, 1e9, 5*sim.Microsecond)
	ch := NewChannel(e, net, 0, 1, 1*sim.Microsecond)
	var order []int
	// A big message posted first must still deliver before a tiny one
	// posted second (QP ordering).
	ch.Post(100e6, func() { order = append(order, 1) })
	ch.Post(10, func() { order = append(order, 2) })
	e.Go("sync", func(p *sim.Proc) { ch.Quiet(p) })
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("delivery order = %v, want [1 2]", order)
	}
	if ch.Posted() != 2 || ch.Delivered() != 2 {
		t.Errorf("posted/delivered = %d/%d", ch.Posted(), ch.Delivered())
	}
}

func TestChannelQuietWaitsForDelivery(t *testing.T) {
	e := sim.NewEngine()
	net := NewPointToPoint(e, 2, 1e9, 10*sim.Microsecond)
	ch := NewChannel(e, net, 0, 1, 0)
	delivered := false
	ch.Post(1e6, func() { delivered = true })
	e.Go("sync", func(p *sim.Proc) {
		ch.Quiet(p)
		if !delivered {
			t.Error("Quiet returned before delivery")
		}
	})
	e.Run()
}

func TestChannelPipelinesLatency(t *testing.T) {
	// Two messages of 1ms serialization with 100us propagation should
	// finish in ~2ms + 100us, not 2ms + 200us.
	e := sim.NewEngine()
	net := NewPointToPoint(e, 2, 1e9, 100*sim.Microsecond)
	ch := NewChannel(e, net, 0, 1, 0)
	ch.Post(1e6, nil)
	ch.Post(1e6, nil)
	var end sim.Time
	e.Go("sync", func(p *sim.Proc) { ch.Quiet(p); end = p.Now() })
	e.Run()
	want := sim.Time(2*sim.Millisecond + 100*sim.Microsecond)
	if d := end - want; d < -1000 || d > 1000 {
		t.Errorf("pipelined end = %v, want ~%v", end, want)
	}
}

func TestChannelToSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	e := sim.NewEngine()
	net := NewPointToPoint(e, 2, 1e9, 0)
	NewChannel(e, net, 1, 1, 0)
}

// Property: channels deliver strictly in post order for arbitrary
// message-size sequences (QP ordering under adversarial payloads).
func TestChannelOrderingProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 32 {
			return true
		}
		e := sim.NewEngine()
		net := NewPointToPoint(e, 2, 1e9, 3*sim.Microsecond)
		ch := NewChannel(e, net, 0, 1, 100)
		var order []int
		for i, sz := range sizes {
			i := i
			ch.Post(float64(sz)+1, func() { order = append(order, i) })
		}
		e.Go("sync", func(p *sim.Proc) { ch.Quiet(p) })
		e.Run()
		if len(order) != len(sizes) {
			return false
		}
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTorusWraparoundLatencyAndLength(t *testing.T) {
	// (0,0) -> (3,0) on a 4x4 torus must wrap: one hop, one hop's
	// latency, and the single traversed link is the wraparound 0->3.
	e := sim.NewEngine()
	tor := NewTorus2D(e, 4, 4, 1e9, 700*sim.Nanosecond)
	links, lat := tor.Path(tor.ID(0, 0), tor.ID(3, 0))
	if len(links) != 1 || lat != 700*sim.Nanosecond {
		t.Fatalf("wraparound path: %d hops, %v latency", len(links), lat)
	}
	if links[0] != tor.Link(tor.ID(0, 0), tor.ID(3, 0)) {
		t.Error("wraparound path must ride the 0->3 link")
	}
	// Corner to corner: one wrap in each dimension.
	links, lat = tor.Path(tor.ID(0, 0), tor.ID(3, 3))
	if len(links) != 2 || lat != 2*700*sim.Nanosecond {
		t.Errorf("corner path: %d hops, %v latency, want 2 hops", len(links), lat)
	}
}

func TestTorusSharedLinkContention(t *testing.T) {
	// Two concurrent messages over the same directed torus link share
	// its bandwidth fairly: each 0.5 GB message at 1 GB/s alone takes
	// 0.5s, together ~1s.
	e := sim.NewEngine()
	tor := NewTorus2D(e, 2, 2, 1e9, 0)
	var end sim.Time
	for i := 0; i < 2; i++ {
		e.Go("s", func(p *sim.Proc) {
			Send(p, tor, tor.ID(0, 0), tor.ID(1, 0), 0.5e9)
			end = p.Now()
		})
	}
	e.Run()
	want := sim.Time(sim.Second)
	if d := end - want; d < -10 || d > 10 {
		t.Errorf("contended sends done at %v, want ~%v", end, want)
	}
	// A message on a different link is unaffected by that contention.
	e2 := sim.NewEngine()
	tor2 := NewTorus2D(e2, 2, 2, 1e9, 0)
	var soloEnd sim.Time
	e2.Go("a", func(p *sim.Proc) { Send(p, tor2, tor2.ID(0, 0), tor2.ID(1, 0), 0.5e9) })
	e2.Go("b", func(p *sim.Proc) {
		Send(p, tor2, tor2.ID(0, 1), tor2.ID(1, 1), 0.5e9)
		soloEnd = p.Now()
	})
	e2.Run()
	if soloEnd != sim.Time(500*sim.Millisecond) {
		t.Errorf("independent link finished at %v, want 500ms", soloEnd)
	}
}

// sendEach is the per-message reference for Scatter: one message per
// destination, each serializing through every hop of its route with
// TransferAsync and paying the hop latency with After, as though no two
// messages shared a flow.
func sendEach(e *sim.Engine, tor *Torus2D, src int, dsts []int, bytes float64, onDelivered func(dst int)) {
	for _, dst := range dsts {
		hops := tor.Route(nil, src, dst)
		if len(hops) == 0 {
			e.After(0, func() { onDelivered(dst) })
			continue
		}
		var cross func(i int)
		cross = func(i int) {
			h := hops[i]
			h.Link.TransferAsync(bytes, 0, func() {
				e.After(h.Latency, func() {
					if i+1 < len(hops) {
						cross(i + 1)
						return
					}
					onDelivered(dst)
				})
			})
		}
		cross(0)
	}
}

// allToAll runs an all-to-all from every node of a w x h torus with
// send. Sources start staggered and send sizes that differ by source,
// so their flows share links over shifting intervals. It returns the
// instant each (src, dst) message was delivered (-1 if never) and the
// bytes each link served.
func allToAll(t *testing.T, w, h int, send func(*sim.Engine, *Torus2D, int, []int, float64, func(int))) ([][]sim.Time, []float64) {
	t.Helper()
	e := sim.NewEngine()
	tor := NewTorus2D(e, w, h, 25e9, 700*sim.Nanosecond)
	n := tor.Nodes()
	at := make([][]sim.Time, n)
	for src := range at {
		at[src] = make([]sim.Time, n)
		for dst := range at[src] {
			at[src][dst] = -1
		}
		dsts := make([]int, 0, n-1)
		for off := 1; off < n; off++ {
			dsts = append(dsts, (src+off)%n)
		}
		bytes := float64(4096 * (1 + src%3))
		e.At(sim.Time(src)*150*sim.Time(sim.Nanosecond), func() {
			send(e, tor, src, dsts, bytes, func(dst int) {
				if at[src][dst] >= 0 {
					t.Errorf("%d->%d delivered twice", src, dst)
				}
				at[src][dst] = e.Now()
			})
		})
	}
	e.Run()
	links := tor.Links()
	served := make([]float64, len(links))
	for i, l := range links {
		served[i] = l.Res.TotalBytes()
		if l.Res.ActiveFlows() != 0 {
			t.Errorf("%s still holds %d flows", l.Res.Name(), l.Res.ActiveFlows())
		}
	}
	return at, served
}

// TestScatterMatchesPerMessageSends: a route tree delivers every message
// of an all-to-all from every node at the instant one flow per message
// would, and each link serves the same bytes, on tori whose rings are 4,
// 5, 3 and 2 wide (a 2-wide ring's two directions share one link).
func TestScatterMatchesPerMessageSends(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {5, 3}, {3, 2}} {
		w, h := dims[0], dims[1]
		want, wantServed := allToAll(t, w, h, sendEach)
		got, served := allToAll(t, w, h, Scatter)
		for src := range want {
			for dst := range want[src] {
				if got[src][dst] != want[src][dst] {
					t.Errorf("%dx%d: %d->%d delivered at %v by scatter, at %v by per-message sends",
						w, h, src, dst, got[src][dst], want[src][dst])
				}
			}
		}
		for i := range wantServed {
			if served[i] != wantServed[i] {
				t.Errorf("%dx%d: link %d served %v bytes by scatter, %v by per-message sends",
					w, h, i, served[i], wantServed[i])
			}
		}
	}
}

// TestScatterDeliversSelfAndRepeats: a dsts entry equal to src is
// delivered at the send instant, and an entry listed twice is delivered
// twice, both at one message's delivery instant.
func TestScatterDeliversSelfAndRepeats(t *testing.T) {
	e := sim.NewEngine()
	tor := NewTorus2D(e, 4, 4, 1e9, 700*sim.Nanosecond)
	var got []string
	e.At(sim.Time(sim.Microsecond), func() {
		Scatter(e, tor, 0, []int{0, 2, 2}, 1000, func(dst int) {
			got = append(got, fmt.Sprintf("%d@%v", dst, e.Now()))
		})
	})
	e.Run()
	// Two hops: each serializes 2 x 1000 bytes at 1 GB/s (2 µs), then
	// pays 700 ns.
	want := []string{"0@1000ns", "2@6400ns", "2@6400ns"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("deliveries %v, want %v", got, want)
	}
}

// scatterSink keeps each scatter's destination list live across runs.
var scatterSink []int

// TestScatterAllocsPerTreeEdge: a scatter allocates its two callbacks
// per tree edge, the edge slice's doublings and three objects more,
// however many hops its routes hold: on a 16x8 torus, one message over 8
// hops makes 8 edges and an all-to-all's 768 hops make 127.
func TestScatterAllocsPerTreeEdge(t *testing.T) {
	e := sim.NewEngine()
	tor := NewTorus2D(e, 16, 8, 25e9, 700)
	all := make([]int, 0, tor.Nodes()-1)
	hops := 0
	for dst := 1; dst < tor.Nodes(); dst++ {
		all = append(all, dst)
		hops += len(tor.Route(nil, 0, dst))
	}
	if hops != 768 {
		t.Fatalf("routes from 0 hold %d hops, want 768", hops)
	}
	for _, c := range []struct {
		dsts  []int
		edges int
	}{
		{[]int{tor.ID(1, 0)}, 1},
		{[]int{tor.ID(4, 4)}, 8},
		{all, 127},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			scatterSink = c.dsts
			Scatter(e, tor, 0, scatterSink, 1<<20, nil)
			e.Run()
		})
		if max := float64(2*c.edges + bits.Len(uint(c.edges)) + 3); allocs > max {
			t.Errorf("scatter over %d tree edges makes %v allocations, want at most %v", c.edges, allocs, max)
		}
	}
}

// TestChannelKeepsOrderWhenLatencyDrops: a message posted just after a
// latency fault ends serializes at the nominal latency, but it must
// still land after the data posted during the fault — the data-before-
// flag order the fused kernels rely on.
func TestChannelKeepsOrderWhenLatencyDrops(t *testing.T) {
	e := sim.NewEngine()
	net := NewPointToPoint(e, 2, 20e9, 2*sim.Microsecond)
	net.SetLatencyScale(0, 8)
	ch := NewChannel(e, net, 0, 1, 300*sim.Nanosecond)
	var order []string
	var at []sim.Time
	land := func(name string) func() {
		return func() {
			order = append(order, name)
			at = append(at, e.Now())
		}
	}
	ch.Post(4096, land("put"))
	e.At(sim.Time(sim.Microsecond), func() {
		net.SetLatencyScale(0, 1)
		ch.Post(8, land("flag"))
	})
	e.Run()
	// The put pays the degraded 16 µs on top of its serialization.
	if len(order) != 2 || order[0] != "put" || at[0] < sim.Time(16*sim.Microsecond) || at[1] < at[0] {
		t.Fatalf("delivered %v at %v, want the put first, after 16µs, and the flag no earlier", order, at)
	}
}

// TestChannelSpawnsNoProcs: a channel drains as engine callbacks.
func TestChannelSpawnsNoProcs(t *testing.T) {
	e := sim.NewEngine()
	ch := NewChannel(e, NewPointToPoint(e, 2, 1e9, sim.Microsecond), 0, 1, 100)
	for i := 0; i < 3; i++ {
		ch.Post(1e3, nil)
	}
	e.At(sim.Time(50*sim.Microsecond), func() { ch.Post(1e3, nil) })
	e.Run()
	if ch.Delivered() != 4 || e.Stats().Spawned != 0 {
		t.Errorf("delivered %d of 4 messages, spawned %d procs; want 4 and 0", ch.Delivered(), e.Stats().Spawned)
	}
}

// TestTorusLinksByDirection: every directed link is reachable by Link,
// listed once by Links in row-major source, +x/-x/+y/-y order (a 2-wide
// ring's two directions share one link), and ridden by Route; a
// non-neighbor pair panics.
func TestTorusLinksByDirection(t *testing.T) {
	e := sim.NewEngine()
	tor := NewTorus2D(e, 3, 2, 1e9, 700)
	var got []string
	for _, l := range tor.Links() {
		if tor.Link(l.From, l.To) != l.Res {
			t.Errorf("Link(%d,%d) is not the listed %s", l.From, l.To, l.Res.Name())
		}
		got = append(got, l.Res.Name())
	}
	want := []string{
		"torus.0->1", "torus.0->2", "torus.0->3",
		"torus.1->2", "torus.1->0", "torus.1->4",
		"torus.2->0", "torus.2->1", "torus.2->5",
		"torus.3->4", "torus.3->5", "torus.3->0",
		"torus.4->5", "torus.4->3", "torus.4->1",
		"torus.5->3", "torus.5->4", "torus.5->2",
	}
	if len(got) != len(want) {
		t.Fatalf("Links = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Links = %v, want %v", got, want)
		}
	}
	for src := 0; src < tor.Nodes(); src++ {
		for dst := 0; dst < tor.Nodes(); dst++ {
			for _, h := range tor.Route(nil, src, dst) {
				if h.Link != tor.Link(h.From, h.To) {
					t.Errorf("route %d->%d hop %d->%d rides %s", src, dst, h.From, h.To, h.Link.Name())
				}
			}
		}
	}
	for _, pair := range [][2]int{{0, 4}, {0, 0}, {-1, 0}, {6, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Link(%d,%d) did not panic", pair[0], pair[1])
				}
			}()
			tor.Link(pair[0], pair[1])
		}()
	}
}
