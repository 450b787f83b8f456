package kernels

import (
	"fusedcc/internal/gpu"
	"fusedcc/internal/sim"
)

// ReLU applies max(0,x) in place over n elements as one kernel:
// stream-in, stream-out, one flop per element.
func ReLU(p *sim.Proc, dev *gpu.Device, buf *gpu.Buffer, off, n int) {
	dev.LaunchGrid(p, "relu", gridFor(n), 0, func(w *gpu.WG, l int) {
		lo, hi := chunk(n, gridFor(n), l)
		w.Read(float64(hi-lo) * 4)
		w.Compute(float64(hi - lo))
		w.Write(float64(hi-lo) * 4)
		if buf.Functional() {
			w.Then(func() { relu(buf.Slice(off+lo, hi-lo)) })
		}
	})
}

// ReLUStrided applies max(0,x) in place over blocks strided ranges —
// cnt elements starting at off within each of blocks stride-spaced
// blocks — as ONE kernel spread across the device's WG slots. Unlike
// ReLU's fixed 64Ki-elements-per-WG grain (fine for launches that are
// rare and large), the grid here is sized to the device so a chunked
// activation keeps full parallelism: K chunk launches must cost ~1/K of
// the whole each, not K fixed per-WG latencies — otherwise chunked
// pipelining pays an activation tax the unchunked schedule never sees.
func ReLUStrided(p *sim.Proc, dev *gpu.Device, buf *gpu.Buffer, stride, off, cnt, blocks int) {
	total := cnt * blocks
	grid := ElementwiseGrid(dev.Config().MaxWGSlots(), total)
	dev.LaunchGrid(p, "relu", grid, 0, func(w *gpu.WG, l int) {
		lo, hi := chunk(total, grid, l)
		w.Read(float64(hi-lo) * 4)
		w.Compute(float64(hi - lo))
		w.Write(float64(hi-lo) * 4)
		if !buf.Functional() {
			return
		}
		w.Then(func() {
			for i := lo; i < hi; {
				b, r := i/cnt, i%cnt
				n := min(cnt-r, hi-i)
				relu(buf.Slice(b*stride+off+r, n))
				i += n
			}
		})
	})
}

// relu applies max(0,x) in place.
func relu(d []float32) {
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
}

// AddInto accumulates src into dst over n elements (dst += src) as one
// kernel — the local reduction step of AllReduce.
func AddInto(p *sim.Proc, dev *gpu.Device, dst *gpu.Buffer, doff int, src *gpu.Buffer, soff, n int) {
	dev.LaunchGrid(p, "add", gridFor(n), 0, func(w *gpu.WG, l int) {
		lo, hi := chunk(n, gridFor(n), l)
		w.Read(2 * float64(hi-lo) * 4)
		w.Compute(float64(hi - lo))
		w.Write(float64(hi-lo) * 4)
		if dst.Functional() && src.Functional() {
			w.Then(func() { dst.AddFrom(doff+lo, src, soff+lo, hi-lo) })
		}
	})
}

// ElementwiseGrid sizes a device-saturating element-wise grid over n
// elements: spread across the device's WG slots with a 1024-element
// grain floor, at least one WG. Shared by ReLUStrided and the analytic
// estimators that price it, so the cost model can never diverge from
// the kernel's actual grid.
func ElementwiseGrid(slots, n int) int {
	if n <= 0 || slots < 1 {
		return 1
	}
	perWG := (n + slots - 1) / slots
	if perWG < 1024 {
		perWG = 1024
	}
	return (n + perWG - 1) / perWG
}

// gridFor sizes an element-wise kernel grid: one logical WG per 64Ki
// elements, at least one.
func gridFor(n int) int {
	g := (n + (1 << 16) - 1) >> 16
	if g < 1 {
		g = 1
	}
	return g
}

// chunk splits n elements into grid contiguous ranges and returns range l.
func chunk(n, grid, l int) (lo, hi int) {
	per := (n + grid - 1) / grid
	lo = l * per
	hi = lo + per
	if hi > n {
		hi = n
	}
	if lo > n {
		lo = n
	}
	return lo, hi
}
