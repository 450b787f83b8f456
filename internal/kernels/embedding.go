// Package kernels implements the compute kernels the paper fuses with
// collectives — embedding-bag pooling, GEMV, and tiled GEMM — plus the
// small element-wise helpers the models need. Every kernel exists in a
// single form usable from both worlds: a per-work-item method that
// advances simulated time through the device cost model and (in
// functional mode) computes real float32 results, plus a bulk-synchronous
// launcher used by the baselines.
package kernels

import (
	"fmt"

	"fusedcc/internal/gpu"
	"fusedcc/internal/sim"
)

// EmbeddingTable is a Rows x Dim table of learned embeddings resident on
// one GPU.
type EmbeddingTable struct {
	Rows, Dim int
	Weights   *gpu.Buffer // Rows*Dim elements; nil-backed in timing mode
}

// NewEmbeddingTable allocates a table on dev.
func NewEmbeddingTable(dev *gpu.Device, rows, dim int) *EmbeddingTable {
	if rows <= 0 || dim <= 0 {
		panic("kernels: embedding table needs positive dims")
	}
	return &EmbeddingTable{Rows: rows, Dim: dim, Weights: dev.Alloc(rows * dim)}
}

// Row returns the backing slice for one row (functional mode).
func (t *EmbeddingTable) Row(r int) []float32 {
	return t.Weights.Slice(r*t.Dim, t.Dim)
}

// EmbeddingBag is one table's pooled lookup over a batch — the analogue
// of EmbeddingBag_updateOutputKernel_sum_mean. Lookup indices use CSR
// layout (Offsets has Batch+1 entries); when Offsets is nil the bag runs
// in timing-only mode using AvgPooling lookups per output row.
type EmbeddingBag struct {
	Table      *EmbeddingTable
	Batch      int
	AvgPooling float64 // pooling factor used for cost (and for timing-only mode)
	Offsets    []int32 // CSR row starts, len Batch+1 (optional)
	Indices    []int32 // CSR indices into the table (optional)
	Mean       bool    // divide pooled sum by bag size
}

// Validate checks shape consistency.
func (e *EmbeddingBag) Validate() error {
	if e.Batch <= 0 {
		return fmt.Errorf("kernels: embedding bag batch %d", e.Batch)
	}
	if e.Offsets != nil {
		if len(e.Offsets) != e.Batch+1 {
			return fmt.Errorf("kernels: offsets len %d, want batch+1=%d", len(e.Offsets), e.Batch+1)
		}
		if int(e.Offsets[e.Batch]) != len(e.Indices) {
			return fmt.Errorf("kernels: offsets end %d != len(indices) %d", e.Offsets[e.Batch], len(e.Indices))
		}
	}
	if e.AvgPooling <= 0 && e.Offsets == nil {
		return fmt.Errorf("kernels: timing-only bag needs AvgPooling > 0")
	}
	return nil
}

// bagSize returns the lookup count for output row b.
func (e *EmbeddingBag) bagSize(b int) float64 {
	if e.Offsets != nil {
		return float64(e.Offsets[b+1] - e.Offsets[b])
	}
	return e.AvgPooling
}

// ComputeRow pools output row b into out[outOff:outOff+Dim]. It charges
// the gather of bagSize rows plus the output write to the WG's device
// and, in functional mode, performs the pooling arithmetic.
func (e *EmbeddingBag) ComputeRow(w *gpu.WG, b int, out *gpu.Buffer, outOff int) {
	dim := e.Table.Dim
	e.GatherRow(w, b, nil)
	w.Write(float64(dim) * 4)
	if out.Functional() && e.Offsets != nil && e.Table.Weights.Functional() {
		w.Then(func() { e.poolInto(b, out.Slice(outOff, dim)) })
	}
}

// ComputeRows pools n consecutive output rows starting at b0 into
// contiguous rows of out at outOff. The caller's WG must represent n
// lanes (WG.Lanes == n) so the grouped gather and write are charged as n
// parallel workgroups.
func (e *EmbeddingBag) ComputeRows(w *gpu.WG, b0, n int, out *gpu.Buffer, outOff int) {
	dim := e.Table.Dim
	pool := 0.0
	for b := b0; b < b0+n; b++ {
		pool += e.bagSize(b)
	}
	w.Gather(pool * float64(dim) * 4)
	w.Write(float64(n*dim) * 4)
	if out.Functional() && e.Offsets != nil && e.Table.Weights.Functional() {
		w.Then(func() {
			for i := 0; i < n; i++ {
				e.poolInto(b0+i, out.Slice(outOff+i*dim, dim))
			}
		})
	}
}

// GatherRows pools n consecutive rows starting at b0 register-resident
// (grouped GatherRow): only the gather is charged; scratch (len >=
// n*Dim) receives the pooled rows in functional mode, through w.Then
// once the gather completes.
func (e *EmbeddingBag) GatherRows(w *gpu.WG, b0, n int, scratch []float32) {
	dim := e.Table.Dim
	pool := 0.0
	for b := b0; b < b0+n; b++ {
		pool += e.bagSize(b)
	}
	w.Gather(pool * float64(dim) * 4)
	if scratch == nil || e.Offsets == nil || !e.Table.Weights.Functional() {
		return
	}
	w.Then(func() {
		for i := 0; i < n; i++ {
			e.poolInto(b0+i, scratch[i*dim:(i+1)*dim])
		}
	})
}

// GatherRow pools output row b, leaving the result register-resident:
// only the table gather is charged, no output store. The fused zero-copy
// operators use this and then stream the result directly to its
// destination. In functional mode the pooled row is written into scratch
// (len >= Dim) when scratch is non-nil, through w.Then once the gather
// completes.
func (e *EmbeddingBag) GatherRow(w *gpu.WG, b int, scratch []float32) {
	w.Gather(e.bagSize(b) * float64(e.Table.Dim) * 4)
	if scratch != nil && e.Offsets != nil && e.Table.Weights.Functional() {
		w.Then(func() { e.poolInto(b, scratch[:e.Table.Dim]) })
	}
}

// poolInto computes the pooled row b into dst (functional mode only).
func (e *EmbeddingBag) poolInto(b int, dst []float32) {
	if e.Offsets == nil || !e.Table.Weights.Functional() {
		return
	}
	for i := range dst {
		dst[i] = 0
	}
	lo, hi := e.Offsets[b], e.Offsets[b+1]
	for _, idx := range e.Indices[lo:hi] {
		row := e.Table.Row(int(idx))
		for i := range dst {
			dst[i] += row[i]
		}
	}
	if e.Mean && hi > lo {
		inv := 1 / float32(hi-lo)
		for i := range dst {
			dst[i] *= inv
		}
	}
}

// Run executes the bag as one conventional kernel: one logical WG per
// output row, writing rows contiguously into out starting at outOff.
// This is the building block of the per-table baseline.
func (e *EmbeddingBag) Run(p *sim.Proc, dev *gpu.Device, out *gpu.Buffer, outOff, wgsPerCU int) {
	if err := e.Validate(); err != nil {
		panic(err)
	}
	dim := e.Table.Dim
	dev.LaunchGrid(p, "embeddingbag", e.Batch, wgsPerCU, func(w *gpu.WG, b int) {
		e.ComputeRow(w, b, out, outOff+b*dim)
	})
}

// EmbeddingSet is the per-GPU collection of bags DLRM evaluates — every
// table shares the same batch. Output rows are laid out table-major:
// out[t*Batch + b].
type EmbeddingSet struct {
	Bags []*EmbeddingBag
}

// Validate checks all bags agree on batch size.
func (s *EmbeddingSet) Validate() error {
	if len(s.Bags) == 0 {
		return fmt.Errorf("kernels: empty embedding set")
	}
	batch := s.Bags[0].Batch
	dim := s.Bags[0].Table.Dim
	for i, b := range s.Bags {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("bag %d: %w", i, err)
		}
		if b.Batch != batch {
			return fmt.Errorf("bag %d batch %d != %d", i, b.Batch, batch)
		}
		if b.Table.Dim != dim {
			return fmt.Errorf("bag %d dim %d != %d", i, b.Table.Dim, dim)
		}
	}
	return nil
}

// Tables returns the table count.
func (s *EmbeddingSet) Tables() int { return len(s.Bags) }

// Batch returns the shared batch size.
func (s *EmbeddingSet) Batch() int { return s.Bags[0].Batch }

// Dim returns the shared embedding dimension.
func (s *EmbeddingSet) Dim() int { return s.Bags[0].Table.Dim }

// OutputLen returns the total pooled output element count.
func (s *EmbeddingSet) OutputLen() int { return s.Tables() * s.Batch() * s.Dim() }

// RunPerTable executes the baseline schedule: one kernel launch per
// table (as the public DLRM code does), paying launch overhead each
// time. Output rows land table-major in out.
func (s *EmbeddingSet) RunPerTable(p *sim.Proc, dev *gpu.Device, out *gpu.Buffer, wgsPerCU int) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	dim := s.Dim()
	for t, bag := range s.Bags {
		bag.Run(p, dev, out, t*s.Batch()*dim, wgsPerCU)
	}
}
