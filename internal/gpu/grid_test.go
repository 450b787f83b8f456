package gpu

import (
	"fmt"
	"hash/fnv"
	"testing"

	"fusedcc/internal/sim"
)

// gridGoldenDigest is the FNV-64a digest of gridGoldenScenario's lines.
// A change to how grid workgroups are admitted, charged or retired that
// moves any body entry or kernel end by a nanosecond, or dispatches one
// event more or less, changes it.
const gridGoldenDigest uint64 = 0x5ae7623fc2abb764

// mix is a stateless hash of a kernel, an item and a draw index, so a
// body's charges depend only on which item it runs, never on when its
// charges are issued relative to other workgroups'.
func mix(vals ...int) int {
	x := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		x ^= uint64(v) + 0x9e3779b97f4a7c15 + x<<6 + x>>2
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return int(x >> 1)
}

// gridGoldenScenario runs grid kernels against a persistent kernel on
// one device and returns one line per body entry, kernel end and final
// counter:
//   - a persistent Launch holds slots at the start and again later, so
//     grid workgroups queue for admission;
//   - grids larger than the resident set loop over items;
//   - lane-coarsened gathers run past the HBM contention knee;
//   - some charges are zero-size, some items are all zero-size, and
//     some bodies Busy.
func gridGoldenScenario() []string {
	e := sim.NewEngine()
	d := NewDevice(e, 0, Config{
		Name:                 "golden-gpu",
		CUs:                  4,
		MaxWGSlotsPerCU:      4,
		HBMBandwidth:         1e9,
		PerWGStreamBandwidth: 0.25e9,
		HBMContentionKnee:    3,
		HBMContentionSlope:   0.15,
		HBMMinEfficiency:     0.4,
		GatherEfficiency:     0.5,
		FlopsPerCU:           1e9,
		KernelLaunchOverhead: 2 * sim.Microsecond,
	})
	var lines []string
	log := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf("%d ", e.Now())+fmt.Sprintf(format, args...))
	}
	// body returns a grid body whose item charges are drawn from
	// (kid, item): reads, gathers, flops and writes of 0..7 units, so
	// about one charge in eight is zero-size, and a Busy now and then.
	body := func(kid int) func(w *WG, l int) {
		return func(w *WG, l int) {
			log("k%d item %d wgs=%d hbm=%d alu=%d", kid, l, d.ActiveWGs(), d.HBM().ActiveFlows(), d.ALU().ActiveFlows())
			r := func(j int) float64 { return float64(mix(kid, l, j) % 8) }
			w.Read(r(0) * 4096 * float64(w.Lanes))
			if mix(kid, l, 1)%3 == 0 {
				w.Gather(r(2) * 8192 * float64(w.Lanes))
			}
			w.Compute(r(3) * 1e4)
			if mix(kid, l, 4)%5 == 0 {
				w.Busy(sim.Duration(r(5)) * 250)
			}
			w.Write(r(6) * 2048)
		}
	}
	grid := func(p *sim.Proc, kid, n, perCU, lanes int) {
		d.LaunchGridLanes(p, fmt.Sprintf("k%d", kid), n, perCU, lanes, body(kid))
		log("k%d end", kid)
	}

	e.Go("persist", func(p *sim.Proc) {
		for round, lanes := range []int{1, 2} {
			d.Launch(p, Kernel{Name: "persist", PhysWGs: 6 / lanes, Lanes: lanes, Body: once(func(w *WG) {
				log("persist.%d wg %d", round, w.PhysID)
				w.Busy(sim.Duration(3000 + 500*w.PhysID))
				w.Read(float64(1+w.PhysID) * 16384)
				w.Gather(float64(1+w.PhysID%3) * 8192 * float64(lanes))
				w.Busy(sim.Duration(2000 * (1 + w.PhysID%2)))
			})})
			log("persist.%d end", round)
			p.Sleep(40 * sim.Microsecond)
		}
	})
	e.Go("gridA", func(p *sim.Proc) { grid(p, 0, 40, 2, 1) })
	e.Go("gridB", func(p *sim.Proc) {
		grid(p, 1, 11, 0, 4)
		grid(p, 2, 3, 0, 2)
	})
	e.Go("gridC", func(p *sim.Proc) {
		p.Sleep(1500)
		for round := 0; round < 6; round++ {
			kid := 10 + round
			n := 1 + mix(kid, 0)%37
			lanes := 1 << (mix(kid, 1) % 3)
			grid(p, kid, n, mix(kid, 2)%5, lanes)
			p.Sleep(sim.Duration(mix(kid, 3) % 4000))
		}
	})

	end := e.Run()
	for _, r := range []*sim.Resource{d.HBM(), d.ALU()} {
		log("%s total=%g busy=%d", r.Name(), r.TotalBytes(), r.BusyTime())
	}
	log("end=%d kernels=%d dispatched=%d", end, d.KernelsLaunched(), e.Stats().Dispatched)
	return lines
}

func TestGridGolden(t *testing.T) {
	lines := gridGoldenScenario()
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	if got := h.Sum64(); got != gridGoldenDigest {
		t.Fatalf("grid golden digest = %#x, want %#x (%d lines, last %q)",
			got, gridGoldenDigest, len(lines), lines[len(lines)-1])
	}
}

// TestGridSpawnsNoProcs: grid and persistent kernels' workgroups are
// callback chains, so neither launch spawns a process, not even for a
// persistent workgroup that blocks on a flag.
func TestGridSpawnsNoProcs(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, 0, small())
	flag := sim.NewFlag(e)
	var grid, persistent uint64
	e.Go("host", func(p *sim.Proc) {
		before := e.Stats().Spawned
		d.LaunchGrid(p, "grid", 20, 0, func(w *WG, l int) { w.Read(4096) })
		grid = e.Stats().Spawned - before
		before = e.Stats().Spawned
		d.Launch(p, Kernel{Name: "persistent", PhysWGs: 6, Body: once(func(w *WG) {
			w.Read(4096)
			w.Add(flag, 1)
			w.WaitGE(flag, 6)
		})})
		persistent = e.Stats().Spawned - before
	})
	e.Run()
	if grid != 0 || persistent != 0 {
		t.Errorf("LaunchGrid spawned %d procs, Launch of 6 WGs %d; want 0 and 0", grid, persistent)
	}
}

// BenchmarkLaunchGrid times one 832-item Read/Compute/Write grid kernel
// on an MI210: one item per resident slot, each a single pass through
// the three charges.
func BenchmarkLaunchGrid(b *testing.B) {
	e := sim.NewEngine()
	d := NewDevice(e, 0, MI210())
	grid := d.Config().MaxWGSlots()
	b.ReportAllocs()
	b.ResetTimer()
	e.Go("host", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			d.LaunchGrid(p, "grid", grid, 0, func(w *WG, l int) {
				w.Read(64 << 10)
				w.Compute(1 << 20)
				w.Write(16 << 10)
			})
		}
	})
	e.Run()
}
