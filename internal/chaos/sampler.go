package chaos

import (
	"fmt"
	"math"

	"fusedcc/internal/graph"
	"fusedcc/internal/netsim"
	"fusedcc/internal/platform"
	"fusedcc/internal/sim"
)

// Sampler derives observed slowdown factors from resource byte
// counters — the detection half of degradation-aware serving. Each
// probe watches one resource (a device ALU, a NIC or torus link) and,
// per sampling window, computes delivered-rate = Δbytes / Δbusy-time;
// the ratio of nominal capacity to delivered rate is the observed
// slowdown (1 is healthy, 8 an eight-fold slowdown), smoothed per
// probe by an exponentially weighted moving average. Nothing reads the
// injected fault state: a degraded link looks slow because its
// transfers actually drained slower, which is exactly what a production
// health monitor would see.
//
// Network probes normalize against configured capacity — exact, since
// link flows are uncapped, so busy-time delivered rate equals current
// usable capacity. Compute probes cannot: per-workgroup rate caps keep
// a kernel's delivered ALU rate below device capacity even on a healthy
// machine, so capacity-normalizing reads permanent phantom slowdown.
// They instead self-normalize against the fastest window observed so
// far (the steady serving workload re-runs the same kernels, so the
// healthy peak is a stable reference). The cost: a device degraded from
// the very first step has no healthy peak to compare against — fault
// detection needs at least one clean window, like any learned baseline.
//
// Only the ALU is probed per device. HBM delivered rate legitimately
// swings several-fold between windows with the access pattern (gather
// contention efficiency varies with which phase of the step a window
// straddles), so a peak baseline reads phantom slowdown on a healthy
// device. The ALU suffices: a straggler's service scale slows every
// engine on the device, so its ALU delivered rate drops by the same
// factor even when the kernel is memory-bound.
type Sampler struct {
	alpha     float64
	threshold float64
	probes    []*samplerProbe
}

type samplerProbe struct {
	res     *sim.Resource
	compute bool    // peak-normalized (see above) instead of capacity-normalized
	peak    float64 // fastest delivered rate seen (compute probes)
	bytes   float64
	busy    sim.Duration
	// ewma is the smoothed slowdown, 0 until the first busy window
	// seeds it (an observed slowdown is never below 1).
	ewma float64
}

// NewSampler attaches a probe to every device's ALU (see above for why
// HBM is not probed) and every scale-out link (shared NICs or per-hop
// links) of pl. alpha is the EWMA weight in (0, 1]: 1 tracks the latest
// window exactly, smaller values damp transients harder. Slowdowns
// below threshold are treated as noise by Degrade.
func NewSampler(pl *platform.Platform, alpha, threshold float64) *Sampler {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("chaos: sampler alpha must be in (0, 1], got %g", alpha))
	}
	if threshold < 1 {
		panic(fmt.Sprintf("chaos: sampler threshold must be >= 1, got %g", threshold))
	}
	s := &Sampler{alpha: alpha, threshold: threshold}
	for _, d := range pl.Devices() {
		s.probes = append(s.probes, &samplerProbe{res: d.ALU(), compute: true})
	}
	if enum, ok := pl.Network().(netsim.LinkEnumerator); ok {
		for _, l := range enum.Links() {
			s.probes = append(s.probes, &samplerProbe{res: l.Res})
		}
	}
	return s
}

// Sample closes the current observation window: every probe that was
// busy since the last call folds its observed slowdown into its EWMA.
// Call it at deterministic points (step boundaries), not on a timer —
// it costs no simulated time.
func (s *Sampler) Sample() {
	for _, p := range s.probes {
		bytes, busy := p.res.TotalBytes(), p.res.BusyTime()
		db, dbusy := bytes-p.bytes, busy-p.busy
		p.bytes, p.busy = bytes, busy
		if db <= 0 || dbusy <= 0 {
			continue // idle window: no evidence either way
		}
		var slow float64
		if p.compute {
			rate := db / dbusy.Seconds()
			if rate > p.peak {
				p.peak = rate
			}
			slow = p.peak / rate
		} else {
			slow = p.res.Capacity() * dbusy.Seconds() / db
		}
		if slow < 1 {
			slow = 1
		}
		if p.ewma == 0 {
			p.ewma = slow
		} else {
			p.ewma += s.alpha * (slow - p.ewma)
		}
	}
}

// Degrade folds the worst smoothed compute (ALU) and network (link)
// slowdowns, each floored at 1, into a re-pricing context for plan
// selection. Slowdowns under the detection threshold read as healthy,
// and factors are quantized to quarter steps so successive steps under
// a steady fault produce the same context (and therefore hit the
// selection cache) instead of re-selecting on every noise wiggle.
func (s *Sampler) Degrade() graph.DegradeContext {
	worstDev, worstNet := 1.0, 1.0
	for _, p := range s.probes {
		if p.compute {
			worstDev = max(worstDev, p.ewma)
		} else {
			worstNet = max(worstNet, p.ewma)
		}
	}
	var dc graph.DegradeContext
	if worstDev >= s.threshold {
		dc.Compute = quantize(worstDev)
	}
	if worstNet >= s.threshold {
		dc.Comm = quantize(worstNet)
	}
	return dc
}

func quantize(f float64) float64 { return math.Round(f*4) / 4 }
