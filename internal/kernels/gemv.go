package kernels

import (
	"fmt"

	"fusedcc/internal/gpu"
	"fusedcc/internal/sim"
)

// GEMV computes y = W.x for an M x K row-major weight panel — the
// token-phase (decode) workhorse of autoregressive transformer inference
// (paper §II-A). Output rows are tiled: each logical workgroup produces
// TileM consecutive elements of y, which is the granularity at which the
// fused operator communicates and reduces.
type GEMV struct {
	M, K  int
	TileM int
	// Functional-mode operands (any may ride a nil-backed buffer in
	// timing mode). W is M*K, X is K, Y is M.
	W, X, Y *gpu.Buffer
}

// Validate checks the shape.
func (g *GEMV) Validate() error {
	if g.M <= 0 || g.K <= 0 {
		return fmt.Errorf("kernels: gemv dims %dx%d", g.M, g.K)
	}
	if g.TileM <= 0 {
		return fmt.Errorf("kernels: gemv TileM %d", g.TileM)
	}
	return nil
}

// Tiles returns the output-tile count.
func (g *GEMV) Tiles() int { return (g.M + g.TileM - 1) / g.TileM }

// TileRange returns the row interval [lo,hi) of tile t.
func (g *GEMV) TileRange(t int) (lo, hi int) {
	lo = t * g.TileM
	hi = lo + g.TileM
	if hi > g.M {
		hi = g.M
	}
	return lo, hi
}

// ComputeTile produces tile t of y into out[outOff:]. GEMV is memory
// bound: the dominant cost is streaming rows*K weights; the FMA work is
// charged to the ALU as well (it is negligible for realistic shapes but
// keeps compute-bound configurations honest).
func (g *GEMV) ComputeTile(w *gpu.WG, t int, out *gpu.Buffer, outOff int) {
	lo, hi := g.TileRange(t)
	rows := hi - lo
	w.Read(float64(rows*g.K)*4 + float64(g.K)*4/float64(g.Tiles()))
	w.Compute(2 * float64(rows) * float64(g.K))
	w.Write(float64(rows) * 4)
	if g.W == nil || g.X == nil || out == nil || !out.Functional() || !g.W.Functional() {
		return
	}
	w.Then(func() {
		wdat, x := g.W.Data(), g.X.Data()
		dst := out.Slice(outOff, rows)
		for r := 0; r < rows; r++ {
			var acc float32
			row := wdat[(lo+r)*g.K : (lo+r+1)*g.K]
			for k, xv := range x {
				acc += row[k] * xv
			}
			dst[r] = acc
		}
	})
}

// ComputeTileValues produces tile t register-resident: weight streaming
// and FMA work are charged but no output store. In functional mode the
// tile values are written into scratch (len >= tile rows) through
// w.Then, once the charges complete. The fused zero-copy operator uses
// this and streams the result straight to the reducing peer.
func (g *GEMV) ComputeTileValues(w *gpu.WG, t int, scratch []float32) {
	lo, hi := g.TileRange(t)
	rows := hi - lo
	w.Read(float64(rows*g.K)*4 + float64(g.K)*4/float64(g.Tiles()))
	w.Compute(2 * float64(rows) * float64(g.K))
	if scratch == nil || g.W == nil || g.X == nil || !g.W.Functional() {
		return
	}
	w.Then(func() {
		wdat, x := g.W.Data(), g.X.Data()
		for r := 0; r < rows; r++ {
			var acc float32
			row := wdat[(lo+r)*g.K : (lo+r+1)*g.K]
			for k, xv := range x {
				acc += row[k] * xv
			}
			scratch[r] = acc
		}
	})
}

// Run executes the whole GEMV as one conventional kernel writing into Y.
func (g *GEMV) Run(p *sim.Proc, dev *gpu.Device, wgsPerCU int) {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	dev.LaunchGrid(p, "gemv", g.Tiles(), wgsPerCU, func(w *gpu.WG, t int) {
		lo, _ := g.TileRange(t)
		g.ComputeTile(w, t, g.Y, lo)
	})
}
