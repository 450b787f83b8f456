// Package dlrm assembles the deep learning recommendation model of the
// paper's first case study (§II-A, Fig 2): embedding tables distributed
// model-parallel across GPUs, bottom and top MLPs replicated
// data-parallel, and the embedding-output All-to-All that switches
// between the two parallelism regimes.
//
// The model is expressed as computation graphs. The forward graph runs
// the bottom MLP concurrently with an EmbeddingBag → AllToAll pair
// (dataflow scheduling provides the overlap); the training graph
// extends it with the backward MLP stack, the embedding-gradient
// exchange, and the data-parallel MLP gradient AllReduce. In compiled
// mode the fusion pass rewrites the pair to the fused embedding +
// All-to-All operator and the gradient exchange to its fused
// counterpart — the fused paths come from the compiler, not from
// hand-wiring.
package dlrm

import (
	"fmt"

	"fusedcc/internal/collectives"
	"fusedcc/internal/core"
	"fusedcc/internal/gpu"
	"fusedcc/internal/graph"
	"fusedcc/internal/kernels"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
	"fusedcc/internal/workload"
)

// Config sizes the model. Defaults mirror the paper's kernel evaluation
// (embedding dim 256 per [47]) — the scale-out simulation parameters of
// Table II live in the astra package.
type Config struct {
	TablesPerGPU int
	TableRows    int
	EmbeddingDim int
	GlobalBatch  int
	AvgPooling   int
	BottomMLP    []int // widths; input first
	TopMLP       []int
	SliceRows    int // fused-operator communication granularity
	RowsPerWG    int // simulation coarsening for large runs (default 1)
	// Groups is the number of independent embedding groups (0 or 1 =
	// the single-group model). Each group owns TablesPerGPU tables per
	// rank, its own All-to-All exchange, and its own interaction
	// operator — the multi-table multi-interaction DLRM whose
	// independent exchange branches give the pipelined and dataflow
	// schedulers real inter-branch overlap to exploit.
	Groups int
	Seed   int64
}

// groups normalizes the group count.
func (c Config) groups() int {
	if c.Groups <= 1 {
		return 1
	}
	return c.Groups
}

// DefaultConfig returns a small but representative model.
func DefaultConfig() Config {
	return Config{
		TablesPerGPU: 8,
		TableRows:    1 << 14,
		EmbeddingDim: 256,
		GlobalBatch:  512,
		AvgPooling:   32,
		BottomMLP:    []int{256, 512, 256},
		TopMLP:       []int{512, 512, 256, 1},
		SliceRows:    32,
		Seed:         1,
	}
}

// Model is a DLRM instance distributed over the PEs of a world.
type Model struct {
	World *shmem.World
	PEs   []int
	Cfg   Config

	// Sets, EmbOp, and GradOp are the first embedding group (the whole
	// model when Groups <= 1).
	Sets  []*kernels.EmbeddingSet
	EmbOp *core.EmbeddingAllToAll
	// GradOp is the backward gradient exchange (training only).
	GradOp *core.EmbeddingGradExchange
	// Ops and GradOps hold every group's pair operators; Ops[0] ==
	// EmbOp.
	Ops     []*core.EmbeddingAllToAll
	GradOps []*core.EmbeddingGradExchange

	opCfg core.Config
	grads *shmem.Symm // data-parallel MLP gradient payload (lazy)
	fwd   *graph.Graph
	train *graph.Graph // lazy: inference-only models never pay for it
	exec  graph.Executor
}

// New builds tables and synthetic categorical inputs on every PE,
// prepares the per-group embedding + All-to-All pairs, and assembles
// the forward and training graphs.
func New(w *shmem.World, pes []int, cfg Config, opCfg core.Config) (*Model, error) {
	if cfg.TablesPerGPU <= 0 || cfg.EmbeddingDim <= 0 || cfg.GlobalBatch <= 0 {
		return nil, fmt.Errorf("dlrm: invalid config %+v", cfg)
	}
	if cfg.RowsPerWG > 1 && cfg.SliceRows%cfg.RowsPerWG != 0 {
		return nil, fmt.Errorf("dlrm: RowsPerWG %d must divide SliceRows %d", cfg.RowsPerWG, cfg.SliceRows)
	}
	pl := w.Platform()
	m := &Model{World: w, PEs: pes, Cfg: cfg}
	for grp := 0; grp < cfg.groups(); grp++ {
		var sets []*kernels.EmbeddingSet
		for s, pe := range pes {
			rng := workload.Rand(cfg.Seed + int64(1000*grp+s))
			dev := pl.Device(pe)
			var bags []*kernels.EmbeddingBag
			for t := 0; t < cfg.TablesPerGPU; t++ {
				tab := kernels.NewEmbeddingTable(dev, cfg.TableRows, cfg.EmbeddingDim)
				workload.FillRandom(rng, tab.Weights)
				bag := &kernels.EmbeddingBag{
					Table: tab, Batch: cfg.GlobalBatch, AvgPooling: float64(cfg.AvgPooling),
				}
				if dev.Config().Functional {
					csr := workload.Lookups(rng, cfg.GlobalBatch, cfg.TableRows, cfg.AvgPooling)
					bag.Offsets, bag.Indices = csr.Offsets, csr.Indices
				}
				bags = append(bags, bag)
			}
			sets = append(sets, &kernels.EmbeddingSet{Bags: bags})
		}
		op, err := core.NewEmbeddingAllToAll(w, pes, sets, cfg.GlobalBatch, cfg.SliceRows, opCfg)
		if err != nil {
			return nil, err
		}
		if cfg.RowsPerWG > 1 {
			op.RowsPerWG = cfg.RowsPerWG
		}
		m.Ops = append(m.Ops, op)
		m.GradOps = append(m.GradOps, core.NewEmbeddingGradExchange(op))
		if grp == 0 {
			m.Sets, m.EmbOp, m.GradOp = sets, op, m.GradOps[0]
		}
	}
	m.opCfg = opCfg

	m.fwd = graph.New(w, pes, opCfg)
	if _, err := m.addForward(m.fwd); err != nil {
		return nil, err
	}
	return m, nil
}

// groupSuffix names a group's nodes ("" for the single-group model, so
// single-group graphs keep their historical node names).
func (m *Model) groupSuffix(grp int) string {
	if m.Cfg.groups() == 1 {
		return ""
	}
	return fmt.Sprintf("[g%d]", grp)
}

// addForward appends the forward-pass nodes to g and returns the final
// (interaction + top MLP) value. With several embedding groups, each
// group contributes an independent EmbeddingBag → AllToAll branch
// feeding its own interaction operator; the top MLP joins them — the
// multi-interaction shape whose parallel exchanges the dataflow and
// pipelined schedulers overlap.
func (m *Model) addForward(g *graph.Graph) (graph.Value, error) {
	pl := m.World.Platform()
	// Bottom MLP: the only computation independent of the embedding
	// exchanges (§II-A); dataflow scheduling overlaps the branches.
	bot := g.PerRank("bottom_mlp", func(p *sim.Proc, rank, pe int) {
		mlp := &kernels.MLP{Widths: m.Cfg.BottomMLP, Batch: m.LocalBatch()}
		mlp.Forward(p, pl.Device(pe))
	})
	single := m.Cfg.groups() == 1
	var interactions []graph.Value
	for grp, op := range m.Ops {
		sfx := m.groupSuffix(grp)
		pooled := g.EmbeddingBag("emb_pool"+sfx, op)
		exch, err := g.AllToAll("emb_a2a"+sfx, pooled)
		if err != nil {
			return graph.Value{}, err
		}
		if single {
			// Historical single-group shape: interaction and top MLP in
			// one node.
			return g.PerRank("interaction+top_mlp", func(p *sim.Proc, rank, pe int) {
				dev := pl.Device(pe)
				m.interaction(p, dev)
				mlp := &kernels.MLP{Widths: m.Cfg.TopMLP, Batch: m.LocalBatch()}
				mlp.Forward(p, dev)
			}, exch, bot), nil
		}
		interactions = append(interactions, g.PerRank("interaction"+sfx, func(p *sim.Proc, rank, pe int) {
			m.interaction(p, pl.Device(pe))
		}, exch, bot))
	}
	top := g.PerRank("top_mlp", func(p *sim.Proc, rank, pe int) {
		mlp := &kernels.MLP{Widths: m.Cfg.TopMLP, Batch: m.LocalBatch()}
		mlp.Forward(p, pl.Device(pe))
	}, interactions...)
	return top, nil
}

// addBackward appends the training-only nodes: backward MLP +
// interaction kernels, then every group's embedding-gradient exchange
// concurrent with the data-parallel MLP gradient AllReduce (the
// production overlap of the paper's Fig 15 setup).
func (m *Model) addBackward(g *graph.Graph, top graph.Value) {
	pl := m.World.Platform()
	bwd := g.PerRank("backward_mlps", func(p *sim.Proc, rank, pe int) {
		// ≈2x forward cost: dgrad + wgrad.
		dev := pl.Device(pe)
		topMLP := &kernels.MLP{Widths: m.Cfg.TopMLP, Batch: m.LocalBatch()}
		topMLP.Forward(p, dev)
		topMLP.Forward(p, dev)
		for range m.Ops {
			m.interaction(p, dev)
		}
		bot := &kernels.MLP{Widths: m.Cfg.BottomMLP, Batch: m.LocalBatch()}
		bot.Forward(p, dev)
		bot.Forward(p, dev)
	}, top)
	for grp, gx := range m.GradOps {
		g.GradExchange("emb_grad_exchange"+m.groupSuffix(grp), gx, bwd)
	}
	// Ring, matching the NCCL/RCCL schedule production data-parallel
	// training uses (and the pre-graph implementation).
	g.AllReduceSymmAlgo("mlp_grad_allreduce", m.grads, 0, m.MLPParams(), collectives.Ring, bwd)
}

// ForwardGraph returns the forward-pass computation graph.
func (m *Model) ForwardGraph() *graph.Graph { return m.fwd }

// TrainGraph returns the training-iteration computation graph,
// building it (and the gradient payload) on first use so inference-only
// models never pay for training state.
func (m *Model) TrainGraph() *graph.Graph {
	if m.train == nil {
		m.grads = m.World.Malloc(m.MLPParams())
		g := graph.New(m.World, m.PEs, m.opCfg)
		top, err := m.addForward(g)
		if err != nil {
			// New already built the forward graph from the same inputs,
			// so a failure here is impossible by construction.
			panic(err)
		}
		m.addBackward(g, top)
		m.train = g
	}
	return m.train
}

// LocalBatch returns the per-GPU batch shard.
func (m *Model) LocalBatch() int { return m.Cfg.GlobalBatch / len(m.PEs) }

// Features returns the interaction feature count: one dense (bottom MLP)
// vector plus every embedding table's pooled vector.
func (m *Model) Features() int { return len(m.PEs)*m.Cfg.TablesPerGPU + 1 }

// Executor returns the model's executor, for tuning pipeline depth
// (Chunks) or forcing stream-aware scheduling.
func (m *Model) Executor() *graph.Executor { return &m.exec }

// StepReport runs one inference pass through the graph executor — the
// bottom MLP concurrent with the embedding + All-to-All (fused when
// compiled), then the interaction operator and top MLP on the local
// batch shard — and returns the per-node graph report (per-stream
// occupancy included in stream-aware modes).
func (m *Model) StepReport(p *sim.Proc, mode graph.Mode) *graph.Report {
	return m.exec.Execute(p, m.fwd, mode)
}

// MLPParams returns the dense-parameter count per replica, the payload
// of the data-parallel gradient AllReduce.
func (m *Model) MLPParams() int {
	bot := &kernels.MLP{Widths: m.Cfg.BottomMLP}
	top := &kernels.MLP{Widths: m.Cfg.TopMLP}
	return bot.Params() + top.Params()
}

// TrainStep runs one training iteration through the graph executor in
// the given mode and returns the per-node graph report: the forward
// pass, the backward MLP and interaction kernels, and the
// embedding-gradient exchange concurrent with the data-parallel MLP
// gradient AllReduce — the latter overlapped with the embedding path in
// every mode, matching production schedules and the paper's Fig 15
// setup.
func (m *Model) TrainStep(p *sim.Proc, mode graph.Mode) *graph.Report {
	return m.exec.Execute(p, m.TrainGraph(), mode)
}

// interaction charges the pairwise dot-product interaction op: for each
// local sample, f feature vectors of dim D produce f*(f-1)/2 dots.
func (m *Model) interaction(rp *sim.Proc, dev *gpu.Device) {
	f := m.Features()
	d := m.Cfg.EmbeddingDim
	batch := m.LocalBatch()
	dev.LaunchGrid(rp, "interaction", batch, 0, func(w *gpu.WG, l int) {
		w.Read(float64(f*d) * 4)
		w.Compute(float64(f*(f-1)/2) * float64(2*d))
		w.Write(float64(f*(f-1)/2) * 4)
	})
}
