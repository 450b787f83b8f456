package shmem

import (
	"fmt"
	"hash/fnv"
	"testing"

	"fusedcc/internal/gpu"
	"fusedcc/internal/netsim"
	"fusedcc/internal/sim"
)

// persistentGoldenDigest is the FNV-64a digest of
// persistentGoldenScenario's lines. A change to how persistent
// workgroups are admitted, charged, woken or retired, or to when a
// shmem primitive takes effect, that moves any step by a nanosecond,
// changes a delivered value, or dispatches one event more or less,
// changes it.
const persistentGoldenDigest uint64 = 0xc7cc8e3641f5b3ad

// persistentGoldenScenario runs one persistent kernel per PE of a 2x2
// hybrid cluster, each workgroup sending to a same-node and a
// cross-node peer, and returns one line per step, kernel end and final
// counter:
//   - every workgroup stores or puts values each item, raises a flag on
//     every peer and waits for the flags of its counterparts, so waits
//     both pass at once and block;
//   - native stores are fenced explicitly and by flags, and bulk puts
//     and flag puts cross the NIC;
//   - PE 0's kernel queues for slots behind a grid kernel;
//   - odd PEs run two lanes per workgroup;
//   - a host process waits on a flag the workgroups also wait on.
func persistentGoldenScenario() []string {
	e := sim.NewEngine()
	pl := testPlatform(e, 2, 2)
	w := NewWorld(pl, DefaultConfig())
	var lines []string
	log := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf("%d ", e.Now())+fmt.Sprintf(format, args...))
	}
	const (
		n     = 4  // PEs
		slots = 4  // flag and landing slots per source PE
		row   = 16 // elements per landing row
		items = 3
	)
	data := w.Malloc(n * slots * items * row)
	bulk := w.Malloc(n * row * 4)
	flags := w.MallocFlags(n * slots)
	physOf := func(pe int) int { return slots / (1 + pe%2) }
	srcs := make([]*gpu.Buffer, n)
	for pe := range srcs {
		srcs[pe] = pl.Device(pe).Alloc(row * 4)
		for i := range srcs[pe].Data() {
			srcs[pe].Data()[i] = float32(pe*1000 + i)
		}
	}

	e.Go("grid0", func(p *sim.Proc) {
		pl.Device(0).LaunchGrid(p, "grid0", 20, 0, func(wg *gpu.WG, l int) {
			wg.Read(float64(2048 * (1 + l%3)))
			wg.Compute(float64(5000 * (1 + l%2)))
		})
		log("grid0 end")
	})
	e.Go("watch", func(p *sim.Proc) {
		flags.On(3, 0).WaitGE(p, 1)
		log("watch woke")
	})
	for pe := 0; pe < n; pe++ {
		e.Go(fmt.Sprintf("host%d", pe), func(p *sim.Proc) {
			p.Sleep(sim.Duration(pe) * 700)
			lanes, phys := 1+pe%2, physOf(pe)
			near, far := pe^1, (pe+2)%n
			dev := pl.Device(pe)
			dev.Launch(p, gpu.Kernel{Name: fmt.Sprintf("persist%d", pe), PhysWGs: phys, Lanes: lanes, Body: func(wg *gpu.WG) func() bool {
				me := wg.PhysID
				log("pe%d wg%d start", pe, me)
				vals := make([]float32, row)
				item := func(i int) {
					peer := near
					if (me+i)%2 == 1 {
						peer = far
					}
					wg.Read(float64(1024 * (1 + (me+i)%3) * lanes))
					if i == 1 {
						wg.Gather(float64(4096 * lanes))
					}
					wg.Compute(float64(20000 * (1 + me%2)))
					wg.Read(0)
					wg.Then(func() {
						for k := range vals {
							vals[k] = float32(pe*1000 + me*100 + i*10 + k)
						}
						log("pe%d wg%d item%d computed", pe, me, i)
					})
					off := ((pe*slots+me)*items + i) * row
					w.SendValues(wg, peer, data, off, vals, row)
					switch i {
					case 0:
						w.StoreRemote(wg, near, bulk, pe*row, srcs[pe], 0, row)
						w.StoreFence(wg, near)
					case 1:
						w.PutNbiRows(wg, far, bulk, pe*row, 0, srcs[pe], row, 0, 1, row)
						w.Fence(wg)
						w.PutNbi(wg, pe, bulk, pe*row, srcs[pe], 2*row, row)
					}
					wg.Busy(sim.Duration(150 * (i + 1)))
				}
				// Steps 0..items-1 record the items, step items the
				// flags and waits; each step starts by logging the
				// item before it.
				next := 0
				step := func() bool {
					if next > 0 && next <= items {
						log("pe%d wg%d item%d", pe, me, next-1)
					}
					switch {
					case next < items:
						item(next)
					case next == items:
						for d := 0; d < n; d++ {
							if d != pe {
								w.SendFlag(wg, d, flags, pe*slots+me, 1)
							}
						}
						if me == 0 {
							w.PutFlagNbi(wg, far, flags, pe*slots+slots-1, 0)
						}
						for src := 0; src < n; src++ {
							if src == pe {
								continue
							}
							for j := me; j < physOf(src); j += phys {
								flags.WaitGE(wg, src*slots+j, 1)
							}
						}
						wg.Busy(0)
					default:
						log("pe%d wg%d done", pe, me)
						return false
					}
					next++
					return true
				}
				step()
				return step
			}})
			log("pe%d end", pe)
		})
	}

	end := e.Run()
	var sum [n]float64
	for pe := 0; pe < n; pe++ {
		for _, v := range data.On(pe).Data() {
			sum[pe] += float64(v)
		}
		for _, v := range bulk.On(pe).Data() {
			sum[pe] += float64(v)
		}
		d := pl.Device(pe)
		log("pe%d sum=%g kernels=%d", pe, sum[pe], d.KernelsLaunched())
		for _, r := range []*sim.Resource{d.HBM(), d.ALU()} {
			log("%s total=%g busy=%d", r.Name(), r.TotalBytes(), r.BusyTime())
		}
	}
	for _, node := range []int{0, 2} {
		f := pl.FabricOf(node)
		for a := 0; a < 2; a++ {
			r := f.Link(a, 1-a)
			log("node%d %s total=%g busy=%d", node/2, r.Name(), r.TotalBytes(), r.BusyTime())
		}
	}
	for _, l := range pl.Network().(netsim.LinkEnumerator).Links() {
		log("%s total=%g busy=%d", l.Res.Name(), l.Res.TotalBytes(), l.Res.BusyTime())
	}
	log("end=%d dispatched=%d", end, e.Stats().Dispatched)
	return lines
}

func TestPersistentGolden(t *testing.T) {
	lines := persistentGoldenScenario()
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	if got := h.Sum64(); got != persistentGoldenDigest {
		t.Fatalf("persistent golden digest = %#x, want %#x (%d lines, last %q)",
			got, persistentGoldenDigest, len(lines), lines[len(lines)-1])
	}
}
