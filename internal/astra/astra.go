// Package astra is an execution-graph-driven scale-out training
// simulator in the spirit of ASTRA-Sim, used — as the paper does
// (§IV-D, Table II) — to project the fused embedding + All-to-All
// operator onto a 128-node DLRM training run over a 2D torus.
//
// Methodology mirrors the paper: per-kernel execution times are
// "collected" by running the GPU device model once per kernel shape
// (the ROC-profiler analogue), then a full forward + backward iteration
// is replayed as an execution graph whose communication phases run on
// the simulated torus. The fused configuration overlaps embedding
// computation with the forward All-to-All and the backward All-to-All
// with the embedding gradient apply; overlap is modelled at slice-chunk
// granularity (first-chunk delay on the send side, pipelined apply on
// the receive side), which keeps the 128-node simulation tractable while
// preserving the timing structure of the fused kernel.
package astra

import (
	"fmt"

	"fusedcc/internal/gpu"
	"fusedcc/internal/kernels"
	"fusedcc/internal/netsim"
	"fusedcc/internal/sim"
)

// SystemConfig is the Table II network plus the node GPU model.
type SystemConfig struct {
	TorusW, TorusH int
	LinkBandwidth  float64 // bytes/sec per directed link
	HopLatency     sim.Duration
	GPU            gpu.Config
}

// DefaultSystem returns the Table II setup: a 128-node 2D torus with
// 200 Gb/s links and 700 ns hop latency, MI210-class nodes.
func DefaultSystem() SystemConfig {
	g := gpu.MI210()
	g.Functional = false
	return SystemConfig{
		TorusW: 16, TorusH: 8,
		LinkBandwidth: 25e9, // 200 Gb/s
		HopLatency:    700 * sim.Nanosecond,
		GPU:           g,
	}
}

// ModelConfig is the Table II DLRM.
type ModelConfig struct {
	EmbeddingDim  int
	MLPLayers     int
	MLPAvgSize    int
	AvgPooling    int
	TablesPerNode int
	LocalBatch    int
	// BottomFrac is the fraction of MLP layers below the interaction
	// (independent computation overlappable with the forward A2A).
	BottomFrac float64
	// Chunks is the fused overlap granularity (slices grouped per
	// network post).
	Chunks int
}

// DefaultModel returns the Table II parameters (embedding dim 92, 43 MLP
// layers of average width 682, pooling 70).
func DefaultModel() ModelConfig {
	return ModelConfig{
		EmbeddingDim:  92,
		MLPLayers:     43,
		MLPAvgSize:    682,
		AvgPooling:    70,
		TablesPerNode: 5,
		LocalBatch:    128,
		BottomFrac:    0.2,
		Chunks:        16,
	}
}

// KernelTimes are the calibrated per-node kernel durations.
type KernelTimes struct {
	EmbeddingFwd sim.Duration
	EmbeddingBwd sim.Duration
	MLPBottomFwd sim.Duration
	MLPTopFwd    sim.Duration
	MLPBwd       sim.Duration
	Interaction  sim.Duration
}

// Simulator replays DLRM training iterations.
type Simulator struct {
	Sys   SystemConfig
	Model ModelConfig
	Times KernelTimes
}

// New calibrates kernel times and returns a simulator.
func New(sys SystemConfig, model ModelConfig) (*Simulator, error) {
	if sys.TorusW < 2 || sys.TorusH < 2 {
		return nil, fmt.Errorf("astra: torus %dx%d too small", sys.TorusW, sys.TorusH)
	}
	if model.Chunks < 1 || model.TablesPerNode < 1 || model.LocalBatch < 1 {
		return nil, fmt.Errorf("astra: invalid model %+v", model)
	}
	s := &Simulator{Sys: sys, Model: model}
	s.Times = s.calibrate()
	return s, nil
}

// Nodes returns the cluster size.
func (s *Simulator) Nodes() int { return s.Sys.TorusW * s.Sys.TorusH }

// GlobalBatch returns nodes * local batch.
func (s *Simulator) GlobalBatch() int { return s.Nodes() * s.Model.LocalBatch }

// measure runs fn on a fresh single-device engine and returns its
// simulated duration — the profiling pass.
func (s *Simulator) measure(fn func(p *sim.Proc, dev *gpu.Device)) sim.Duration {
	e := sim.NewEngine()
	dev := gpu.NewDevice(e, 0, s.Sys.GPU)
	e.Go("profile", func(p *sim.Proc) { fn(p, dev) })
	return sim.Duration(e.Run())
}

// calibrate collects per-kernel times from the device model.
func (s *Simulator) calibrate() KernelTimes {
	m := s.Model
	globalBatch := s.GlobalBatch()
	var t KernelTimes

	// Embedding forward: pool every table over the global batch in one
	// persistent kernel (rows coarsened per WG to bound event count;
	// the cost model is linear so timing is unaffected).
	const rowsPerWG = 64
	embRows := m.TablesPerNode * globalBatch
	t.EmbeddingFwd = s.measure(func(p *sim.Proc, dev *gpu.Device) {
		bag := &kernels.EmbeddingBag{
			Table:      &kernels.EmbeddingTable{Rows: 1 << 20, Dim: m.EmbeddingDim, Weights: dev.Alloc(0)},
			Batch:      embRows,
			AvgPooling: float64(m.AvgPooling),
		}
		out := dev.Alloc(0)
		grid := (embRows + rowsPerWG - 1) / rowsPerWG
		dev.LaunchGrid(p, "embfwd", grid, 0, func(w *gpu.WG, l int) {
			for r := 0; r < rowsPerWG; r++ {
				b := l*rowsPerWG + r
				if b >= embRows {
					break
				}
				bag.ComputeRow(w, b, out, 0)
			}
		})
	})
	// Embedding backward: gradient scatter-add touches the same rows
	// with read-modify-write traffic (~1.5x the forward gather+write).
	t.EmbeddingBwd = t.EmbeddingFwd * 3 / 2

	mlpWidths := func(layers int) []int {
		ws := make([]int, layers+1)
		for i := range ws {
			ws[i] = m.MLPAvgSize
		}
		return ws
	}
	bottom := int(float64(m.MLPLayers)*m.BottomFrac + 0.5)
	if bottom < 1 {
		bottom = 1
	}
	top := m.MLPLayers - bottom
	t.MLPBottomFwd = s.measure(func(p *sim.Proc, dev *gpu.Device) {
		(&kernels.MLP{Widths: mlpWidths(bottom), Batch: m.LocalBatch}).Forward(p, dev)
	})
	t.MLPTopFwd = s.measure(func(p *sim.Proc, dev *gpu.Device) {
		(&kernels.MLP{Widths: mlpWidths(top), Batch: m.LocalBatch}).Forward(p, dev)
	})
	// Backward ≈ 2x forward (dgrad + wgrad GEMMs).
	t.MLPBwd = (t.MLPBottomFwd + t.MLPTopFwd) * 2

	f := s.Nodes()*m.TablesPerNode + 1
	t.Interaction = s.measure(func(p *sim.Proc, dev *gpu.Device) {
		// One logical WG per sample: the pairwise-interaction kernel is
		// embarrassingly parallel over the batch.
		dev.LaunchGrid(p, "interaction", m.LocalBatch, 0, func(w *gpu.WG, l int) {
			w.Read(float64(f*m.EmbeddingDim) * 4)
			w.Compute(float64(f*(f-1)/2) * float64(2*m.EmbeddingDim))
		})
	})
	return t
}

// a2aBytesPerPair returns the forward All-to-All payload between one
// node pair: its tables' pooled rows for the peer's batch shard.
func (s *Simulator) a2aBytesPerPair() float64 {
	m := s.Model
	return float64(m.TablesPerNode*m.LocalBatch*m.EmbeddingDim) * 4
}

// mlpParamBytes returns the data-parallel gradient payload.
func (s *Simulator) mlpParamBytes() float64 {
	m := s.Model
	return float64(m.MLPLayers*m.MLPAvgSize*m.MLPAvgSize) * 4
}

// Result summarizes one training iteration.
type Result struct {
	Total  sim.Duration
	Phases map[string]sim.Duration
	// Shards is always 1 and Note always "": the replay runs on one
	// serial engine. Both stay because the benchmark module reads them.
	Shards int
	Note   string
}

// TrainIterationOpt is TrainIteration; shards is ignored. It stays
// because the benchmark module calls it.
func (s *Simulator) TrainIterationOpt(fused bool, shards int) Result { return s.TrainIteration(fused) }

// TrainIteration replays one forward + backward pass across the torus
// and returns the makespan.
func (s *Simulator) TrainIteration(fused bool) Result {
	n := s.Nodes()
	e := sim.NewEngine()
	tor := netsim.NewTorus2D(e, s.Sys.TorusW, s.Sys.TorusH, s.Sys.LinkBandwidth, s.Sys.HopLatency)
	t := s.Times
	chunks := sim.Duration(s.Model.Chunks)

	fwdRecv := make([]*sim.Flag, n)
	bwdRecv := make([]*sim.Flag, n)
	arDone := make([]*sim.Flag, n)
	for i := 0; i < n; i++ {
		fwdRecv[i] = sim.NewFlag(e)
		bwdRecv[i] = sim.NewFlag(e)
		arDone[i] = sim.NewFlag(e)
	}
	pairBytes := s.a2aBytesPerPair()

	// sendAll launches the A2A traffic from src to every peer as one
	// route tree, without blocking the sending process.
	sendAll := func(src int, recv []*sim.Flag) {
		dsts := make([]int, 0, n-1)
		for off := 1; off < n; off++ {
			dsts = append(dsts, (src+off)%n)
		}
		netsim.Scatter(e, tor, src, dsts, pairBytes, func(dst int) { recv[dst].Add(1) })
	}

	finish := make([]sim.Time, n)
	for node := 0; node < n; node++ {
		node := node
		e.Go(fmt.Sprintf("node%d", node), func(p *sim.Proc) {
			// --- Forward ---
			// Bottom MLP is independent computation, overlapped with the
			// embedding + A2A phase on a concurrent "stream".
			botDone := sim.NewFlag(e)
			e.After(t.MLPBottomFwd, func() { botDone.Set(1) })
			if fused {
				// Fused kernel: the first slices are communicated after
				// 1/chunks of the pooling work; the rest of the compute
				// overlaps the in-flight All-to-All.
				p.Sleep(t.EmbeddingFwd / chunks)
				sendAll(node, fwdRecv)
				p.Sleep(t.EmbeddingFwd - t.EmbeddingFwd/chunks)
			} else {
				// Bulk-synchronous: the collective starts only after the
				// embedding kernel retires.
				p.Sleep(t.EmbeddingFwd)
				sendAll(node, fwdRecv)
			}
			fwdRecv[node].WaitGE(p, int64(n-1))
			botDone.WaitGE(p, 1)
			// Interaction + top MLP.
			p.Sleep(t.Interaction + t.MLPTopFwd)

			// --- Backward ---
			p.Sleep(t.MLPBwd)
			// MLP gradient AllReduce starts as soon as MLP grads exist,
			// overlapping the embedding path in both configurations.
			s.ringAllReduce(e, arDone[node])
			// Embedding gradients return to table owners (backward A2A).
			sendAll(node, bwdRecv)
			applyStart := p.Now()
			bwdRecv[node].WaitGE(p, int64(n-1))
			if fused {
				// Pipelined apply: gradient slices were applied as they
				// arrived; only the final chunk's apply remains after
				// the last arrival (bounded below by the full apply
				// time from phase start).
				target := applyStart.Add(t.EmbeddingBwd - t.EmbeddingBwd/chunks)
				if p.Now() < target {
					p.Sleep(target.Sub(p.Now()))
				}
				p.Sleep(t.EmbeddingBwd / chunks)
			} else {
				p.Sleep(t.EmbeddingBwd)
			}
			arDone[node].WaitGE(p, 1)
			finish[node] = p.Now()
		})
	}
	e.Run()
	var total sim.Duration
	for _, ft := range finish {
		if sim.Duration(ft) > total {
			total = sim.Duration(ft)
		}
	}
	return Result{
		Total: total,
		Phases: map[string]sim.Duration{
			"emb_fwd":     t.EmbeddingFwd,
			"emb_bwd":     t.EmbeddingBwd,
			"mlp_fwd":     t.MLPBottomFwd + t.MLPTopFwd,
			"mlp_bwd":     t.MLPBwd,
			"interaction": t.Interaction,
		},
		Shards: 1,
	}
}

// ringAllReduce models the hierarchical 2D-torus AllReduce of the MLP
// gradients analytically per node: reduce-scatter and all-gather along
// the X ring, then the Y ring on the X-reduced shard, at ring-bandwidth
// cost plus hop latencies. Gradient sync needs no per-byte fidelity here
// because it is identical in both configurations.
func (s *Simulator) ringAllReduce(e *sim.Engine, doneFlag *sim.Flag) {
	w, h := s.Sys.TorusW, s.Sys.TorusH
	bytes := s.mlpParamBytes()
	bw := s.Sys.LinkBandwidth
	dur := sim.TransferTime(2*float64(w-1)/float64(w)*bytes, bw) +
		sim.TransferTime(2*float64(h-1)/float64(h)*bytes/float64(w), bw) +
		sim.Duration(2*(w-1)+2*(h-1))*s.Sys.HopLatency
	e.After(dur, func() { doneFlag.Set(1) })
}
