package fabric

import (
	"testing"

	"fusedcc/internal/sim"
)

func cfg() Config {
	return Config{LinkBandwidth: 1e9, StoreLatency: 100, PerWGStoreBandwidth: 0.25e9}
}

func TestCopyUsesFullLink(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, 2, cfg())
	var end sim.Time
	e.Go("blit", func(p *sim.Proc) {
		f.Copy(p, 0, 1, 1e9)
		end = p.Now()
	})
	e.Run()
	want := sim.Time(sim.Second + 100)
	if d := end - want; d < -10 || d > 10 {
		t.Errorf("copy done at %v, want ~%v", end, want)
	}
}

func TestLinksAreIndependentPerDirection(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, 2, cfg())
	var a, b sim.Time
	e.Go("fwd", func(p *sim.Proc) { f.Copy(p, 0, 1, 1e9); a = p.Now() })
	e.Go("rev", func(p *sim.Proc) { f.Copy(p, 1, 0, 1e9); b = p.Now() })
	e.Run()
	want := sim.Time(sim.Second + 100)
	for _, got := range []sim.Time{a, b} {
		if d := got - want; d < -10 || d > 10 {
			t.Errorf("duplex transfer done at %v, want ~%v (no duplex sharing)", got, want)
		}
	}
}

// pathSink keeps Path's result live, so an allocating Path cannot be
// optimized onto the stack.
var pathSink []*sim.Resource

// TestPathIsTheDirectLink: a fabric routes a channel over the one
// direct link and the store latency, without allocating a path.
func TestPathIsTheDirectLink(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, 3, cfg())
	links, lat := f.Path(0, 2)
	if len(links) != 1 || links[0] != f.Link(0, 2) || lat != cfg().StoreLatency {
		t.Fatalf("Path(0, 2) = %v, %v; want [%s], %v", links, lat, f.Link(0, 2).Name(), cfg().StoreLatency)
	}
	if links, lat := f.Path(1, 1); links != nil || lat != 0 {
		t.Errorf("self path = %v, %v; want nil, 0", links, lat)
	}
	if n := testing.AllocsPerRun(100, func() { pathSink, _ = f.Path(2, 1) }); n != 0 {
		t.Errorf("Path allocates %v objects per call, want 0", n)
	}
}

func TestLinkPanicsOnDiagonal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for diagonal link")
		}
	}()
	e := sim.NewEngine()
	New(e, 2, cfg()).Link(1, 1)
}

func TestDefaultConfigMatchesTableI(t *testing.T) {
	c := DefaultConfig()
	if c.LinkBandwidth != 80e9 {
		t.Errorf("link bw = %g, want 80 GB/s (Table I)", c.LinkBandwidth)
	}
}
