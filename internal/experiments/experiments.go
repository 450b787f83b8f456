// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV): the per-figure Run functions build the Table I
// system shapes, execute baseline and fused configurations on fresh
// simulation engines, and report normalized execution times in the same
// row/series structure the paper plots.
package experiments

import (
	"fmt"
	"strings"

	"fusedcc/internal/core"
	"fusedcc/internal/graph"
	"fusedcc/internal/kernels"
	"fusedcc/internal/platform"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

// Row is one x-axis point of a figure: a labelled baseline/fused pair.
type Row struct {
	Label    string
	Baseline sim.Duration
	Fused    sim.Duration
}

// Normalized returns fused time as a fraction of baseline (the paper's
// y-axis).
func (r Row) Normalized() float64 {
	if r.Baseline == 0 {
		return 0
	}
	return float64(r.Fused) / float64(r.Baseline)
}

// Result is a regenerated figure or table.
type Result struct {
	ID    string
	Title string
	Rows  []Row
	// Notes carries summary lines (averages, peak effects).
	Notes []string
	// Extra carries non-tabular renderings (the Fig 11 Gantt chart).
	Extra string
}

// MeanReduction returns the average of (1 - normalized) over rows, the
// headline number the paper quotes per figure.
func (res *Result) MeanReduction() float64 {
	if len(res.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range res.Rows {
		sum += 1 - r.Normalized()
	}
	return sum / float64(len(res.Rows))
}

// MaxReduction returns the best-case reduction.
func (res *Result) MaxReduction() float64 {
	best := 0.0
	for _, r := range res.Rows {
		if red := 1 - r.Normalized(); red > best {
			best = red
		}
	}
	return best
}

// String renders the result as an aligned text table.
func (res *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", res.ID, res.Title)
	if len(res.Rows) > 0 {
		fmt.Fprintf(&b, "%-24s %14s %14s %12s\n", "config", "baseline", "fused", "normalized")
		for _, r := range res.Rows {
			fmt.Fprintf(&b, "%-24s %14s %14s %12.3f\n", r.Label, r.Baseline, r.Fused, r.Normalized())
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if res.Extra != "" {
		b.WriteString(res.Extra)
	}
	return b.String()
}

// Options tunes experiment size and sweep execution. Quick shrinks
// sweeps and workloads so unit tests and short benchmark runs stay
// fast; the full CLI runs use Quick=false.
type Options struct {
	Quick bool
	// Parallel is the sweep worker count: every sweep point builds its
	// own engine and world, so points run concurrently on a bounded
	// pool of this many workers, with results merged in deterministic
	// point order — output is byte-identical at any worker count. One
	// runs points inline (serial); values below one mean GOMAXPROCS.
	Parallel int
	// Cache shares select/partition analysis plans across sweep points
	// and workers, so re-instantiations of the same (stack, shape) pair
	// replay cached plans instead of re-pricing identical cost
	// surfaces. Nil makes each sweep build its own cache.
	Cache *graph.PassCache
}

// withCache returns opt with a pass cache installed, so a sweep shares
// analyses across its points even when the caller did not provide one.
func (opt Options) withCache() Options {
	if opt.Cache == nil {
		opt.Cache = graph.NewPassCache()
	}
	return opt
}

// clusterWorld builds a Nodes x GPUsPerNode system with the Table I link
// parameters on both levels (timing mode), on one fresh serial engine.
// Shapes are fixed per experiment, so a construction failure is a
// programming error.
func clusterWorld(nodes, gpusPerNode int) (*platform.Platform, *shmem.World) {
	pl, err := platform.New(sim.NewEngine(), platform.Cluster(nodes, gpusPerNode))
	if err != nil {
		panic(err)
	}
	return pl, shmem.NewWorld(pl, shmem.DefaultConfig())
}

// scaleUpWorld builds the Table I scale-up system: one node, four
// MI210-class GPUs on an 80 GB/s fully-connected fabric (timing mode).
func scaleUpWorld(gpus int) (*platform.Platform, *shmem.World) {
	return clusterWorld(1, gpus)
}

// scaleOutWorld builds the Table I scale-out system: nodes with one GPU
// each over a 20 GB/s network (timing mode).
func scaleOutWorld(nodes int) (*platform.Platform, *shmem.World) {
	return clusterWorld(nodes, 1)
}

func allPEs(pl *platform.Platform) []int {
	pes := make([]int, pl.NDevices())
	for i := range pes {
		pes[i] = i
	}
	return pes
}

// timingEmbeddingSets builds per-rank embedding sets without functional
// payloads (cost model only).
func timingEmbeddingSets(pl *platform.Platform, pes []int, tables, dim, batch, pooling int) []*kernels.EmbeddingSet {
	sets := make([]*kernels.EmbeddingSet, len(pes))
	for s, pe := range pes {
		dev := pl.Device(pe)
		var bags []*kernels.EmbeddingBag
		for t := 0; t < tables; t++ {
			bags = append(bags, &kernels.EmbeddingBag{
				Table: &kernels.EmbeddingTable{Rows: 1 << 20, Dim: dim, Weights: dev.Alloc(0)},
				Batch: batch, AvgPooling: float64(pooling),
			})
		}
		sets[s] = &kernels.EmbeddingSet{Bags: bags}
	}
	return sets
}

// runReport executes fn on the platform's engine and returns its report.
func runReport(pl *platform.Platform, fn func(p *sim.Proc) core.Report) core.Report {
	var rep core.Report
	pl.E.Go("exp", func(p *sim.Proc) { rep = fn(p) })
	pl.E.Run()
	return rep
}

// embConfig is one {global batch | tables per GPU} sweep point.
type embConfig struct {
	batch, tables int
}

func (c embConfig) label() string { return fmt.Sprintf("{%d|%d}", c.batch, c.tables) }

// embeddingRun times one embedding + All-to-All execution (fused or
// baseline) for one configuration on a freshly built world.
func embeddingRun(nodes, gpusPerNode int, c embConfig, dim, pooling, slice int, cfg core.Config, fused bool) sim.Duration {
	pl, w := clusterWorld(nodes, gpusPerNode)
	pes := allPEs(pl)
	sets := timingEmbeddingSets(pl, pes, c.tables, dim, c.batch, pooling)
	op, err := core.NewEmbeddingAllToAll(w, pes, sets, c.batch, slice, cfg)
	if err != nil {
		panic(err)
	}
	op.RowsPerWG = slice // coarsened: timing is linear in rows
	if fused {
		return runReport(pl, op.RunFused).Duration()
	}
	return runReport(pl, op.RunBaseline).Duration()
}

// embeddingPoint runs fused and baseline embedding + All-to-All for one
// configuration on freshly built worlds and returns the row.
func embeddingPoint(nodes, gpusPerNode int, c embConfig, dim, pooling, slice int, cfg core.Config) Row {
	return Row{
		Label:    c.label(),
		Baseline: embeddingRun(nodes, gpusPerNode, c, dim, pooling, slice, cfg, false),
		Fused:    embeddingRun(nodes, gpusPerNode, c, dim, pooling, slice, cfg, true),
	}
}
