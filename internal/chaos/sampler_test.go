package chaos

import (
	"math"
	"testing"

	"fusedcc/internal/graph"
	"fusedcc/internal/platform"
	"fusedcc/internal/sim"
)

// samplerWorld builds a two-node scale-out platform and a sampler on it.
func samplerWorld(t *testing.T, alpha, threshold float64) (*platform.Platform, *Sampler) {
	t.Helper()
	pl, err := platform.New(sim.NewEngine(), platform.ScaleOut(2))
	if err != nil {
		t.Fatal(err)
	}
	return pl, NewSampler(pl, alpha, threshold)
}

// drain runs one transfer of amount on res at the given rate scale, to
// completion, then restores the nominal rate.
func drain(pl *platform.Platform, res *sim.Resource, amount, scale float64) {
	res.SetRateScale(scale)
	pl.E.Go("drain", func(p *sim.Proc) { res.Transfer(p, amount, 0) })
	pl.E.Run()
	res.SetRateScale(1)
}

// linkProbes returns the sampler's network probes in link order.
func linkProbes(s *Sampler) []*samplerProbe {
	var out []*samplerProbe
	for _, p := range s.probes {
		if !p.compute {
			out = append(out, p)
		}
	}
	return out
}

func TestSamplerEWMA(t *testing.T) {
	// At threshold 1 Degrade reports every class, floored at 1.
	pl, s := samplerWorld(t, 0.5, 1)
	if dc := s.Degrade(); dc != (graph.DegradeContext{Compute: 1, Comm: 1}) {
		t.Errorf("no observations: Degrade = %+v, want 1 for both classes", dc)
	}
	links := linkProbes(s)
	if len(links) != 2 {
		t.Fatalf("%d link probes on 2 NICs", len(links))
	}
	net := links[0]

	drain(pl, net.res, 1e6, 0.25) // a 4x slowdown seeds the average
	s.Sample()
	if math.Abs(net.ewma-4) > 1e-9 {
		t.Errorf("after seed = %g, want 4", net.ewma)
	}
	if links[1].ewma != 0 {
		t.Errorf("idle link seeded to %g", links[1].ewma)
	}

	drain(pl, net.res, 1e6, 0.5) // 4 + 0.5*(2-4) = 3
	s.Sample()
	if math.Abs(net.ewma-3) > 1e-9 {
		t.Errorf("after update = %g, want 3", net.ewma)
	}

	s.Sample() // an idle window is no evidence either way
	if math.Abs(net.ewma-3) > 1e-9 {
		t.Errorf("after idle window = %g, want 3", net.ewma)
	}
	if dc := s.Degrade(); dc != (graph.DegradeContext{Compute: 1, Comm: 3}) {
		t.Errorf("Degrade = %+v, want Compute 1, Comm 3", dc)
	}
}

// TestSamplerClassesStaySeparate checks that Degrade reads the worst
// link for Comm and the worst ALU for Compute, never one for the other.
func TestSamplerClassesStaySeparate(t *testing.T) {
	pl, s := samplerWorld(t, 1, 1.5)
	links := linkProbes(s)
	alu := pl.Device(0).ALU()

	// Window 1: the ALU runs at full rate (its peak), links at 2x and 8x.
	drain(pl, alu, 1e12, 1)
	drain(pl, links[0].res, 1e6, 0.5)
	drain(pl, links[1].res, 1e6, 0.125)
	s.Sample()
	if dc := s.Degrade(); dc.Compute != 0 || dc.Comm != 8 {
		t.Errorf("window 1: Degrade = %+v, want Comm 8 and a healthy ALU", dc)
	}

	// Window 2: the ALU slows 16x; the idle links keep their averages.
	drain(pl, alu, 1e12, 1.0/16)
	s.Sample()
	if dc := s.Degrade(); dc.Compute != 16 || dc.Comm != 8 {
		t.Errorf("window 2: Degrade = %+v, want Compute 16, Comm 8", dc)
	}
}

func TestSamplerBadAlphaPanics(t *testing.T) {
	pl, err := platform.New(sim.NewEngine(), platform.ScaleOut(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSampler(alpha %g) did not panic", alpha)
				}
			}()
			NewSampler(pl, alpha, 1.5)
		}()
	}
}
