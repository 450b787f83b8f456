package kernels

import (
	"fmt"

	"fusedcc/internal/gpu"
	"fusedcc/internal/sim"
)

// GEMM computes C = A.B with A (M x K), B (K x N), C (M x N), all
// row-major — the expert feed-forward workhorse of MoE layers (§II-A).
// The output is tiled TileM x TileN; each logical workgroup owns one
// output tile, the unit the fused operator communicates.
type GEMM struct {
	M, N, K      int
	TileM, TileN int
	A, B, C      *gpu.Buffer
}

// Validate checks the shape.
func (g *GEMM) Validate() error {
	if g.M <= 0 || g.N <= 0 || g.K <= 0 {
		return fmt.Errorf("kernels: gemm dims %dx%dx%d", g.M, g.N, g.K)
	}
	if g.TileM <= 0 || g.TileN <= 0 {
		return fmt.Errorf("kernels: gemm tiles %dx%d", g.TileM, g.TileN)
	}
	return nil
}

// TilesM returns the tile-row count.
func (g *GEMM) TilesM() int { return (g.M + g.TileM - 1) / g.TileM }

// TilesN returns the tile-column count.
func (g *GEMM) TilesN() int { return (g.N + g.TileN - 1) / g.TileN }

// Tiles returns the total output-tile count.
func (g *GEMM) Tiles() int { return g.TilesM() * g.TilesN() }

// TileRect returns the output rectangle [mlo,mhi) x [nlo,nhi) of tile t
// (row-major tile order).
func (g *GEMM) TileRect(t int) (mlo, mhi, nlo, nhi int) {
	tm, tn := t/g.TilesN(), t%g.TilesN()
	mlo, nlo = tm*g.TileM, tn*g.TileN
	mhi, nhi = mlo+g.TileM, nlo+g.TileN
	if mhi > g.M {
		mhi = g.M
	}
	if nhi > g.N {
		nhi = g.N
	}
	return
}

// ComputeTile produces output tile t into out (an M x N buffer) at the
// tile's natural offsets. Cost: stream the A-rows and B-columns the tile
// consumes, run 2*tm*tn*K flops, write the tile.
func (g *GEMM) ComputeTile(w *gpu.WG, t int, out *gpu.Buffer) {
	mlo, mhi, nlo, nhi := g.TileRect(t)
	g.ComputeRect(w, mlo, mhi, nlo, nhi, out)
}

// ComputeRect produces the output rectangle [mlo,mhi) x [nlo,nhi) into
// out (an M x N buffer) at its natural offsets — ComputeTile over an
// arbitrary rectangle, for operators whose communication tiling does not
// coincide with the kernel's (ragged destination-block bands).
func (g *GEMM) ComputeRect(w *gpu.WG, mlo, mhi, nlo, nhi int, out *gpu.Buffer) {
	tm, tn := mhi-mlo, nhi-nlo
	if tm <= 0 || tn <= 0 {
		return
	}
	w.Read(float64(tm*g.K)*4 + float64(tn*g.K)*4)
	w.Compute(2 * float64(tm) * float64(tn) * float64(g.K))
	w.Write(float64(tm*tn) * 4)
	if g.A == nil || g.B == nil || out == nil || !out.Functional() || !g.A.Functional() {
		return
	}
	w.Then(func() {
		a, b := g.A.Data(), g.B.Data()
		c := out.Data()
		for m := mlo; m < mhi; m++ {
			arow := a[m*g.K : (m+1)*g.K]
			crow := c[m*g.N : (m+1)*g.N]
			for n := nlo; n < nhi; n++ {
				var acc float32
				for k := 0; k < g.K; k++ {
					acc += arow[k] * b[k*g.N+n]
				}
				crow[n] = acc
			}
		}
	})
}

// TileValues computes tile t's values row-major into scratch (len >=
// TileM*TileN) with no simulated cost — the pure math half of a tile,
// for kernel authors (e.g. the Triton DSL) who charge costs through
// their own load/dot primitives. No-op when operands are timing-only.
func (g *GEMM) TileValues(t int, scratch []float32) {
	mlo, mhi, nlo, nhi := g.TileRect(t)
	g.ValuesRect(mlo, mhi, nlo, nhi, scratch)
}

// ValuesRect is TileValues over an arbitrary output rectangle
// [mlo,mhi) x [nlo,nhi), written row-major into scratch (len >=
// (mhi-mlo)*(nhi-nlo)).
func (g *GEMM) ValuesRect(mlo, mhi, nlo, nhi int, scratch []float32) {
	if scratch == nil || g.A == nil || g.B == nil || !g.A.Functional() || !g.B.Functional() {
		return
	}
	a, b := g.A.Data(), g.B.Data()
	tn := nhi - nlo
	for m := mlo; m < mhi; m++ {
		arow := a[m*g.K : (m+1)*g.K]
		for n := nlo; n < nhi; n++ {
			var acc float32
			for k := 0; k < g.K; k++ {
				acc += arow[k] * b[k*g.N+n]
			}
			scratch[(m-mlo)*tn+(n-nlo)] = acc
		}
	}
}

// Run executes the whole GEMM as one conventional kernel writing into C.
func (g *GEMM) Run(p *sim.Proc, dev *gpu.Device, wgsPerCU int) {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	dev.LaunchGrid(p, "gemm", g.Tiles(), wgsPerCU, func(w *gpu.WG, t int) {
		g.ComputeTile(w, t, g.C)
	})
}

// FlopCount returns the multiply-add count of the full GEMM.
func (g *GEMM) FlopCount() float64 { return 2 * float64(g.M) * float64(g.N) * float64(g.K) }
