// Package fusedcc is a Go reproduction of "Optimizing Distributed ML
// Communication with Fused Computation-Collective Operations"
// (Punniyamurthy, Hamidouche, Beckmann — SC 2024).
//
// The library implements the paper's fused operators — embedding
// pooling + All-to-All, GEMV + AllReduce, and GEMM + All-to-All — on a
// deterministic discrete-event model of a multi-GPU, multi-node system
// (GPUs with occupancy-bounded workgroups and HBM contention, an
// Infinity-Fabric-like scale-up fabric, NIC/RDMA scale-out networking, a
// ROC_SHMEM-style GPU-initiated communication layer, RCCL-style baseline
// collectives, a Triton-like tile DSL, and an ASTRA-Sim-style scale-out
// training simulator). In functional mode the kernels compute real
// float32 results, so the fused operators are verified bit-for-bit
// against their bulk-synchronous baselines.
//
// Programs are written against a typed computation-graph IR
// (NewGraph): compute nodes (EmbeddingBag, GEMV, MatMul, per-rank
// kernels) and collective nodes (AllToAll, AllReduce, gradient
// exchange) over distributed tensors. Compile pattern-matches adjacent
// compute→collective pairs and rewrites them to the fused operators —
// the §III-D graph-transformation pass — and the executor runs the same
// graph eagerly (bulk-synchronous) or compiled (fused) with bit-exact
// results and a per-node timing/traffic report.
//
// This package is the public facade: it builds systems in the paper's
// two evaluation shapes plus general hybrid clusters (any Nodes x
// GPUsPerNode over a NIC mesh or 2D torus, with two-level hierarchical
// collectives) and re-exports the types needed to assemble and run
// graphs, operators, models, and the experiments.
package fusedcc

import (
	"fmt"

	"fusedcc/internal/collectives"
	"fusedcc/internal/core"
	"fusedcc/internal/dlrm"
	"fusedcc/internal/experiments"
	"fusedcc/internal/gpu"
	"fusedcc/internal/graph"
	"fusedcc/internal/moe"
	"fusedcc/internal/platform"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
	"fusedcc/internal/torch"
	"fusedcc/internal/transformer"
)

// Re-exported core types. Aliases keep the public API small while the
// implementation lives in focused internal packages.
type (
	// Proc is a simulated process; host programs receive one.
	Proc = sim.Proc
	// Duration is simulated time in nanoseconds.
	Duration = sim.Duration
	// Report captures one operator run (makespan, per-PE ends, traffic).
	Report = core.Report
	// OperatorConfig tunes the fused-kernel runtime (occupancy,
	// scheduling policy, bookkeeping costs).
	OperatorConfig = core.Config
	// Schedule selects communication-aware or oblivious WG ordering.
	Schedule = core.Schedule
	// EmbeddingAllToAll is the fused embedding + All-to-All operator.
	EmbeddingAllToAll = core.EmbeddingAllToAll
	// GEMVAllReduce is the fused GEMV + AllReduce operator.
	GEMVAllReduce = core.GEMVAllReduce
	// GEMMAllToAll is the fused GEMM + All-to-All operator.
	GEMMAllToAll = core.GEMMAllToAll
	// EmbeddingGradExchange is the backward counterpart of
	// EmbeddingAllToAll: gradients return to table owners with the
	// All-to-All overlapped against the scatter-add.
	EmbeddingGradExchange = core.EmbeddingGradExchange
	// DLRM is the recommendation-model case study. Config.Groups > 1
	// builds the multi-table, multi-interaction variant whose embedding
	// groups are independent graph branches.
	DLRM = dlrm.Model
	// DLRMModelConfig sizes the DLRM case study.
	DLRMModelConfig = dlrm.Config
	// ParallelFFN is the tensor-parallel transformer block case study.
	ParallelFFN = transformer.ParallelFFN
	// TransformerDecoder is the N-layer decoder stack built as a single
	// graph (attention stand-in + FFN pair per layer).
	TransformerDecoder = transformer.Decoder
	// DecoderConfig sizes a TransformerDecoder.
	DecoderConfig = transformer.DecoderConfig
	// MoELayer is the mixture-of-experts case study.
	MoELayer = moe.Layer
	// MoEStack is L chained MoE layers built as a single graph.
	MoEStack = moe.Stack
	// ExperimentResult is a regenerated paper figure or table.
	ExperimentResult = experiments.Result
)

// Re-exported graph IR types: the compile-and-fuse API every workload
// is written against.
type (
	// Graph is the typed computation graph.
	Graph = graph.Graph
	// GraphNode is one vertex of a Graph.
	GraphNode = graph.Node
	// GraphValue is an edge: one node's output, another's dependency.
	GraphValue = graph.Value
	// GraphExecutor runs graphs with dataflow scheduling (and, in
	// Pipelined, Wavefront, and Auto modes or with Streams set,
	// stream-aware scheduling over per-GPU compute/comm queues).
	GraphExecutor = graph.Executor
	// GraphReport is a per-node timing/traffic execution report, with
	// per-stream occupancy in stream-aware runs.
	GraphReport = graph.Report
	// StreamReport is one GPU's stream-occupancy line of a GraphReport.
	StreamReport = graph.StreamReport
	// ExecMode selects eager, compiled, pipelined, wavefront, or auto
	// execution.
	ExecMode = graph.Mode
	// PartitionJoin records one layer-boundary join edge a wavefront
	// lowering rewired to chunk granularity.
	PartitionJoin = graph.Join
	// SelectReport describes the plan a non-eager run lowered: the
	// per-pair decisions (with the predicted cost of every eligible form
	// in Auto mode), the wavefront chains Auto scheduled, and the
	// rowwise splits and rewired joins of wavefront segments.
	SelectReport = graph.SelectReport
	// SelectDecision records one pair's planned form.
	SelectDecision = graph.Decision
	// SelectWavefront records one chain Auto scheduled as a cross-pair
	// wavefront.
	SelectWavefront = graph.WavefrontDecision
	// LoadContext describes observed serving load (queue depth, arrival
	// rate) for load-aware selection; the zero value prices for an idle
	// machine, reproducing Select's historical choices exactly.
	LoadContext = graph.LoadContext
	// DegradeContext carries observed degradation (compute and comm
	// slowdown factors) for fault-aware re-pricing; the zero value means
	// healthy and changes nothing.
	DegradeContext = graph.DegradeContext
	// FusionPattern identifies one compute→collective rewrite.
	FusionPattern = graph.Pattern
	// RowsSpec declares a rowwise per-rank compute node — the builder
	// contract that lets wavefront partitioning flow chunk-granular
	// dependencies through custom per-rank stages.
	RowsSpec = graph.RowsSpec
	// RangeKind names the dimension a chunk range tiles (rows, elems,
	// tables).
	RangeKind = core.RangeKind

	// GEMVSpec describes a GEMV + AllReduce workload (named fields
	// replacing the old positional constructor arguments).
	GEMVSpec = graph.GEMVSpec
	// EmbeddingSpec describes an embedding + All-to-All workload.
	EmbeddingSpec = graph.EmbeddingSpec
	// GEMMSpec describes a GEMM + All-to-All workload.
	GEMMSpec = graph.GEMMSpec
)

// Graph execution modes. Every mode but Eager is a policy over one
// plan — {eager | fuse | pipeline@K | wavefront@K} per fusible pair —
// that the executor lowers before running.
const (
	// Eager runs every node bulk-synchronous (compute kernels +
	// library collectives).
	Eager = graph.Eager
	// Compiled fuses every fusible pair.
	Compiled = graph.Compiled
	// Pipelined chunks every fusible pair: it executes as K chunked
	// sub-node chains whose collectives overlap later chunks' compute
	// on per-GPU streams — the CoCoNet/GC3-style software-pipelining
	// alternative to fusion.
	Pipelined = graph.Pipelined
	// Auto prices the forms with the cost model: each fusible pair
	// executes in whichever form the analytic device/link cost model
	// predicts fastest — fused, pipelined at a per-pair
	// saturation-clamped chunk depth, eager, or a cross-pair wavefront
	// chain — mixed within one graph.
	Auto = graph.Auto
	// Wavefront chunks pairs and rowwise nodes at depth K with chunk
	// ranges first-class across layer boundaries, so a deep stack whose
	// joins provably align (e.g. the token-banded MoE stack) executes as a wavefront — layer l+1's chunk c waits only
	// for layer l's chunk c — instead of draining the pipeline at every
	// layer boundary.
	Wavefront = graph.Wavefront
)

// Chunk-range kinds (see RowsSpec.Kind).
const (
	RangeRows   = core.RangeRows
	RangeElems  = core.RangeElems
	RangeTables = core.RangeTables
)

// DefaultChunks is the chunk depth Pipelined and Wavefront modes use
// when the executor's Chunks field is zero.
const DefaultChunks = graph.DefaultChunks

// Fusion patterns (see SelectDecision.Pattern).
const (
	PatternGEMVAllReduce     = graph.PatternGEMVAllReduce
	PatternEmbeddingAllToAll = graph.PatternEmbeddingAllToAll
	PatternGEMMAllToAll      = graph.PatternGEMMAllToAll
	PatternGradExchange      = graph.PatternGradExchange
)

// Compile lowers a graph under the Compiled policy: adjacent
// compute→collective pairs are rewritten to the fused operators;
// unmatched nodes still run as eager baselines.
func Compile(g *Graph) (*Graph, *SelectReport) { return graph.Compile(g) }

// Partition lowers a graph under the Pipelined policy: every fusible
// compute→collective pair is split into chunks chunked sub-node chains
// (clamped to each operator's granularity) whose interleaved schedule
// software-pipelines communication behind compute. Chunked execution is
// bit-exact with eager.
func Partition(g *Graph, chunks int) (*Graph, *SelectReport) {
	return graph.Partition(g, chunks)
}

// PartitionWavefront lowers a graph under the Wavefront policy:
// rowwise-declared nodes chunk alongside the pairs, and every layer-
// boundary join whose chunk ranges provably align becomes chunk-
// granular — the graph executes as a wavefront instead of draining at
// each boundary. Bit-exact with eager.
func PartitionWavefront(g *Graph, chunks int) (*Graph, *SelectReport) {
	return graph.PartitionWavefront(g, chunks)
}

// Select lowers a graph under the Auto policy: each fusible
// compute→collective pair is priced in its execution forms
// (eager, fused, pipelined at candidate chunk depths up to the pair's
// WG-slot saturation point) with the analytic device/link cost model,
// and rewritten to the predicted-fastest form; alignable segment chains
// are additionally priced as cross-pair wavefronts with the wavefront
// pipeline recurrence and rewritten whole when the model predicts a
// win. The report lists every decision with the predicted costs. Mixed-
// mode execution is bit-exact with eager.
func Select(g *Graph) (*Graph, *SelectReport) {
	return graph.Select(g)
}

// SelectLoaded is Select re-priced for a machine under serving load:
// each form's latency is charged with the head-of-line delay it imposes
// on the queued work behind it (its bottleneck-stream demand times the
// observed queue depth), so under contention the model can prefer a
// form with worse idle latency but lower stream occupancy. A zero
// LoadContext is exactly Select.
func SelectLoaded(g *Graph, load LoadContext) (*Graph, *SelectReport) {
	return graph.SelectLoaded(g, load)
}

// Stack chains layers onto a graph: build(l, prev) appends layer l's
// nodes and returns its output value; prev is the zero GraphValue for
// layer 0. It returns the last layer's output — the layer-builder API
// multi-layer model stacks are assembled with.
func Stack(g *Graph, layers int, build func(layer int, prev GraphValue) (GraphValue, error)) (GraphValue, error) {
	return graph.Stack(g, layers, build)
}

// Scheduling policies (paper §III-A, Fig 14).
const (
	CommAware = core.CommAware
	Oblivious = core.Oblivious
)

// Topology selects the inter-node network of a multi-node system.
type Topology = platform.Topology

// Inter-node topologies.
const (
	// TopologyPointToPoint is the full NIC mesh of Table I.
	TopologyPointToPoint = platform.TopoPointToPoint
	// TopologyTorus2D is the 2D torus of the Table II simulations.
	TopologyTorus2D = platform.TopoTorus2D
)

// CollectiveAlgo selects the baseline collective algorithm (see
// OperatorConfig.Collective).
type CollectiveAlgo = collectives.Algo

// Collective algorithms.
const (
	// CollectiveAuto picks flat or hierarchical from the node layout.
	CollectiveAuto = collectives.Auto
	// CollectiveFlat forces the single-level algorithms.
	CollectiveFlat = collectives.Flat
	// CollectiveRing forces the ring AllReduce.
	CollectiveRing = collectives.Ring
	// CollectiveHierarchical forces the two-level algorithms.
	CollectiveHierarchical = collectives.Hierarchical
)

// DefaultOperatorConfig returns the evaluation defaults (comm-aware
// scheduling, one WG slot of register pressure).
func DefaultOperatorConfig() OperatorConfig { return core.DefaultConfig() }

// System is an instantiated simulated cluster: engine, hardware, the
// GPU-initiated communication world, and the framework layer.
type System struct {
	Engine   *sim.Engine
	Platform *platform.Platform
	World    *shmem.World
	Torch    *torch.Framework
}

// Options configures system construction.
type Options struct {
	// Functional enables real float32 computation on device buffers
	// (for verification; timing-only runs are cheaper).
	Functional bool
	// Topology selects the inter-node network of multi-node systems
	// (default: point-to-point NIC mesh).
	Topology Topology
}

// NewScaleUp builds the paper's scale-up shape: one node with the given
// number of MI210-class GPUs fully connected at 80 GB/s (Table I).
func NewScaleUp(gpus int, opt Options) (*System, error) {
	return NewCluster(1, gpus, opt)
}

// NewScaleOut builds the paper's scale-out shape: nodes with one GPU
// each over a 20 GB/s network (Table I).
func NewScaleOut(nodes int, opt Options) (*System, error) {
	return NewCluster(nodes, 1, opt)
}

// NewCluster builds the general hybrid shape: nodes of fabric-connected
// MI210-class GPU groups (80 GB/s links) joined by a 20 GB/s-per-node
// inter-node network of the selected topology. An invalid shape is
// reported as an error, not a panic.
func NewCluster(nodes, gpusPerNode int, opt Options) (*System, error) {
	cfg := platform.Cluster(nodes, gpusPerNode)
	cfg.GPU.Functional = opt.Functional
	cfg.Topology = opt.Topology
	return newSystem(cfg)
}

func newSystem(cfg platform.Config) (*System, error) {
	e := sim.NewEngine()
	pl, err := platform.New(e, cfg)
	if err != nil {
		return nil, err
	}
	w := shmem.NewWorld(pl, shmem.DefaultConfig())
	return &System{Engine: e, Platform: pl, World: w, Torch: torch.New(w)}, nil
}

// PEs returns all GPU ids, the default communicator membership.
func (s *System) PEs() []int {
	pes := make([]int, s.Platform.NDevices())
	for i := range pes {
		pes[i] = i
	}
	return pes
}

// Run executes fn as the host program and drives the simulation to
// completion, returning the final virtual time.
func (s *System) Run(fn func(p *Proc)) Duration {
	s.Engine.Go("host", fn)
	return Duration(s.Engine.Run())
}

// NewGraph returns an empty computation graph over all the system's
// GPUs. Build nodes with the graph's typed builders, then run it with
// RunGraph (or a GraphExecutor) in Eager or Compiled mode.
func (s *System) NewGraph(cfg OperatorConfig) *Graph {
	return graph.New(s.World, s.PEs(), cfg)
}

// RunGraph drives one execution of g in the given mode as the host
// program and returns the per-node report.
func (s *System) RunGraph(g *Graph, mode ExecMode) *GraphReport {
	var (
		x   GraphExecutor
		rep *GraphReport
	)
	s.Run(func(p *Proc) { rep = x.Execute(p, g, mode) })
	return rep
}

// NewDLRM builds the DLRM case study on this system.
func (s *System) NewDLRM(cfg dlrm.Config, opCfg OperatorConfig) (*DLRM, error) {
	return dlrm.New(s.World, s.PEs(), cfg, opCfg)
}

// NewTransformerFFN builds the tensor-parallel FFN case study.
func (s *System) NewTransformerFFN(cfg transformer.Config, opCfg OperatorConfig) (*ParallelFFN, error) {
	return transformer.New(s.World, s.PEs(), cfg, opCfg)
}

// NewMoELayer builds the mixture-of-experts case study.
func (s *System) NewMoELayer(cfg moe.Config, opCfg OperatorConfig) (*MoELayer, error) {
	return moe.New(s.World, s.PEs(), cfg, opCfg)
}

// NewTransformerDecoder builds an N-layer decoder stack as one graph,
// runnable in any execution mode (Eager, Compiled, Pipelined).
func (s *System) NewTransformerDecoder(cfg DecoderConfig, opCfg OperatorConfig) (*TransformerDecoder, error) {
	return transformer.NewDecoder(s.World, s.PEs(), cfg, opCfg)
}

// NewMoEStack builds a stack of layers MoE layers as one graph.
func (s *System) NewMoEStack(cfg moe.Config, layers int, opCfg OperatorConfig) (*MoEStack, error) {
	return moe.NewStack(s.World, s.PEs(), cfg, layers, opCfg)
}

// DecoderDefaultConfig returns the default decoder-stack configuration.
func DecoderDefaultConfig() DecoderConfig { return transformer.DefaultDecoderConfig() }

// DLRMConfig returns the default DLRM case-study configuration.
func DLRMConfig() dlrm.Config { return dlrm.DefaultConfig() }

// TransformerConfig returns the default FFN case-study configuration.
func TransformerConfig() transformer.Config { return transformer.DefaultConfig() }

// MoEConfig returns the default MoE case-study configuration.
func MoEConfig() moe.Config { return moe.DefaultConfig() }

// NewGEMVAllReduce assembles the GEMV + AllReduce pair operator from a
// spec, with synthetic seeded weights: every rank computes y_s = W_s.x_s
// and the operator produces the reduced y on every GPU.
func (s *System) NewGEMVAllReduce(spec GEMVSpec, cfg OperatorConfig) (*GEMVAllReduce, error) {
	gemvs, err := spec.Build(s.Platform, s.PEs())
	if err != nil {
		return nil, err
	}
	return core.NewGEMVAllReduce(s.World, s.PEs(), gemvs, cfg)
}

// NewEmbeddingAllToAll assembles the embedding + All-to-All pair
// operator from a spec, with synthetic seeded tables and lookups.
func (s *System) NewEmbeddingAllToAll(spec EmbeddingSpec, cfg OperatorConfig) (*EmbeddingAllToAll, error) {
	return spec.NewOperator(s.World, s.PEs(), cfg)
}

// NewGEMMAllToAll assembles the GEMM + All-to-All pair operator from a
// spec, with synthetic seeded operands: per-rank GEMM of
// (Tokens*len(PEs)) x N x K.
func (s *System) NewGEMMAllToAll(spec GEMMSpec, cfg OperatorConfig) (*GEMMAllToAll, error) {
	gemms, err := spec.Build(s.Platform, s.PEs())
	if err != nil {
		return nil, err
	}
	return core.NewGEMMAllToAll(s.World, s.PEs(), gemms, cfg)
}

// NewEmbeddingGradExchange builds the backward gradient exchange for a
// forward embedding + All-to-All operator.
func NewEmbeddingGradExchange(fwd *EmbeddingAllToAll) *EmbeddingGradExchange {
	return core.NewEmbeddingGradExchange(fwd)
}

// experiment is one registry row: a primary id, optional aliases, and
// the runner. RunExperimentOpt and Experiments both derive from the table,
// so the dispatch and the catalogue cannot drift.
type experiment struct {
	id      string
	aliases []string
	run     func(experiments.Options) *ExperimentResult
}

// experimentTable lists the regenerable artifacts in paper order.
var experimentTable = []experiment{
	{id: "table1", run: func(experiments.Options) *ExperimentResult { return experiments.TableI() }},
	{id: "table2", run: func(experiments.Options) *ExperimentResult { return experiments.TableII() }},
	{id: "fig8", run: experiments.Fig8},
	{id: "fig9", run: experiments.Fig9},
	{id: "fig10", run: experiments.Fig10},
	{id: "fig11", run: experiments.Fig11},
	{id: "fig12", run: experiments.Fig12},
	{id: "fig13", run: experiments.Fig13},
	{id: "fig14", run: experiments.Fig14},
	{id: "fig15", run: experiments.Fig15},
	{id: "fig16", aliases: []string{"hybrid"}, run: experiments.Fig16},
	{id: "pipeline", run: experiments.Pipeline},
	{id: "auto", run: experiments.Auto},
	{id: "wavefront", run: experiments.Wavefront},
	{id: "serving", run: experiments.Serving},
	{id: "chaos", run: experiments.Chaos},
	{id: "astra", aliases: []string{"astra-replay"}, run: experiments.AstraReplay},
	{id: "ablation:zerocopy", run: experiments.AblationZeroCopy},
	{id: "ablation:slicesize", run: experiments.AblationSliceSize},
	{id: "ablation:occupancy", run: experiments.AblationOccupancyPenalty},
	{id: "ablation:kernelsplit", run: experiments.AblationKernelSplit},
}

// SweepOptions tunes how the Run* entry points execute sweeps.
type SweepOptions struct {
	// Quick shrinks sweeps for fast runs.
	Quick bool
	// Parallel is the sweep worker count: each sweep point runs its own
	// engine, so points execute concurrently on a bounded pool, merged
	// in deterministic point order — results are identical at any
	// count. One runs serial; values below one mean GOMAXPROCS.
	Parallel int
	// SimShards is the astra replay's engine shard count: the replay
	// ("astra") runs serially and on this many conservative shards, and
	// zero means eight. Every other experiment runs each simulation on
	// one serial engine and ignores it.
	SimShards int
}

func (o SweepOptions) internal() experiments.Options {
	return experiments.Options{Quick: o.Quick, Parallel: o.Parallel, SimShards: o.SimShards}
}

// EngineStats are process-wide simulation-engine runtime counters
// (events dispatched, event-pool reuse, direct sleep handoffs, heap
// high-water, conservative windows and barrier stalls), aggregated over
// every engine and shard the process ran.
type EngineStats = sim.Stats

// GlobalEngineStats snapshots the process-wide engine counters — the
// source of the BENCH_speed.json engine block.
func GlobalEngineStats() EngineStats { return sim.GlobalStats() }

// RunExperimentOpt regenerates one artifact by id — "fig8" .. "fig15",
// "table1", "table2", an ablation ("ablation:zerocopy",
// "ablation:slicesize", "ablation:occupancy", "ablation:kernelsplit"),
// the beyond-the-paper hybrid-cluster sweep ("fig16" / "hybrid"), or
// any other id Experiments lists — under the given sweep options
// (opt.Quick shrinks sweeps for fast runs).
func RunExperimentOpt(id string, opt SweepOptions) (*ExperimentResult, error) {
	iopt := opt.internal()
	for _, ex := range experimentTable {
		if ex.id == id {
			return ex.run(iopt), nil
		}
		for _, a := range ex.aliases {
			if a == id {
				return ex.run(iopt), nil
			}
		}
	}
	return nil, fmt.Errorf("fusedcc: unknown experiment %q", id)
}

// Experiments lists the regenerable artifact ids in paper order,
// derived from the same registry RunExperimentOpt dispatches on.
func Experiments() []string {
	ids := make([]string, len(experimentTable))
	for i, ex := range experimentTable {
		ids[i] = ex.id
	}
	return ids
}

// RunHybridShape runs the hybrid-cluster comparison (hierarchical vs
// flat collectives, fused vs baseline operators) on one nodes x gpus
// shape — the engine behind fusionbench's -shape flag.
func RunHybridShape(nodes, gpusPerNode int, quick bool) (*ExperimentResult, error) {
	return experiments.HybridShape(nodes, gpusPerNode, experiments.Options{Quick: quick})
}

// RunPipelineConfigOpt runs one {shape, layers, chunks} configuration
// of the execution-mode comparison on all three case-study stacks — the
// engine behind fusionbench's -mode/-chunks/-layers flags. Rows pair
// the eager baseline against the requested mode; notes carry all three
// makespans and per-stream occupancy.
func RunPipelineConfigOpt(nodes, gpusPerNode, layers, chunks int, mode ExecMode, opt SweepOptions) (*ExperimentResult, error) {
	return experiments.PipelinePoint(nodes, gpusPerNode, layers, chunks, mode, opt.internal())
}

// DurationOf converts seconds of simulated time to a Duration.
func DurationOf(seconds float64) Duration { return sim.DurationOf(seconds) }

// RunServingConfigOpt serves the three case-study stacks at one shape
// under an open-loop request stream — the engine behind fusionbench's
// -mode serve. The load is a seeded Poisson stream at qps (bounded by
// requests or by the simulated duration) or a trace file replayed
// verbatim. Each stack is served twice at the same offered load: on the
// idle-machine Auto plan and on the load-aware plan re-priced with the
// observed queue depth; rows pair the two plans' p99 latencies.
func RunServingConfigOpt(nodes, gpusPerNode, layers int, qps float64, requests int,
	duration Duration, tracePath string, seed int64, opt SweepOptions) (*ExperimentResult, error) {
	return experiments.ServingPoint(nodes, gpusPerNode, layers, qps, requests, duration, tracePath, seed, opt.internal())
}

// RunChaosConfigOpt serves the case-study stacks at one shape under an
// injected fault plan — the engine behind fusionbench's -mode chaos
// -faults. spec uses the chaos grammar ("slowlink@3,x8,start=1ms;
// droprank@?,start=4ms"; "?" targets draw from seed). Each stack is
// served once per arm on the same seeded arrival stream: the static
// fused and eager plans, offline Auto, and Auto with online
// re-selection from observed degradation; rows pair static-fused p99
// against auto+online p99.
func RunChaosConfigOpt(nodes, gpusPerNode, layers int, spec string, qps float64,
	requests int, seed int64, opt SweepOptions) (*ExperimentResult, error) {
	return experiments.ChaosPoint(nodes, gpusPerNode, layers, spec, qps, requests, seed, opt.internal())
}

// GPUModel returns the device model used throughout (MI210-class).
func GPUModel() gpu.Config { return gpu.MI210() }
