package experiments

import (
	"fmt"

	"fusedcc/internal/collectives"
	"fusedcc/internal/core"
	"fusedcc/internal/platform"
	"fusedcc/internal/sim"
)

// Fig16 is a beyond-the-paper artifact: the hybrid-cluster sweep over
// multi-node x multi-GPU shapes (2x4, 4x4, 8x4), where the paper
// evaluated only the degenerate scale-up and scale-out cases. Per shape
// it compares the flat-ring, flat-direct, and two-level hierarchical
// AllReduce, and the fused embedding + All-to-All against baselines
// using flat and hierarchical library All-to-Alls.
func Fig16(opt Options) *Result {
	shapes := [][2]int{{2, 4}, {4, 4}, {8, 4}}
	if opt.Quick {
		shapes = [][2]int{{2, 4}, {4, 4}}
	}
	res := &Result{ID: "Fig16", Title: "hybrid clusters: two-level collectives and fused operators (beyond the paper)"}
	for _, sh := range shapes {
		one, err := HybridShape(sh[0], sh[1], opt)
		if err != nil {
			panic(err) // shapes are fixed and valid
		}
		res.Rows = append(res.Rows, one.Rows...)
		res.Notes = append(res.Notes, one.Notes...)
	}
	return res
}

// HybridShape runs the hybrid comparison for a single nodes x gpus
// shape. Rows pair the flat baseline against the better strategy
// (hierarchical collective / fused operator), so Normalized < 1 means
// the topology-aware path wins.
func HybridShape(nodes, gpusPerNode int, opt Options) (*Result, error) {
	if err := platform.Cluster(nodes, gpusPerNode).Validate(); err != nil {
		return nil, err
	}
	label := fmt.Sprintf("%dx%d", nodes, gpusPerNode)
	res := &Result{ID: "Hybrid" + label, Title: fmt.Sprintf("hybrid cluster %s (fabric 80 GB/s, NIC 20 GB/s)", label)}

	// AllReduce: flat ring vs two-level hierarchical at DLRM-gradient
	// payloads. The hierarchy moves only 1/GPUsPerNode of the payload
	// over each NIC, which is where the fabric/NIC asymmetry pays off.
	payloads := []int{1 << 20, 4 << 20} // bytes
	if opt.Quick {
		payloads = []int{1 << 20}
	}
	for _, bytes := range payloads {
		elems := bytes / 4
		ring := allReduceTime(nodes, gpusPerNode, elems, collectives.Ring)
		direct := allReduceTime(nodes, gpusPerNode, elems, collectives.Flat)
		hier := allReduceTime(nodes, gpusPerNode, elems, collectives.Hierarchical)
		res.Rows = append(res.Rows, Row{
			Label:    fmt.Sprintf("%s AR %dMiB ring/hier", label, bytes>>20),
			Baseline: ring, Fused: hier,
		})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s AllReduce %d MiB: ring %v, direct %v, hierarchical %v (%.1f%% vs ring)",
			label, bytes>>20, ring, direct, hier, 100*(1-float64(hier)/float64(ring))))
	}

	// Fused embedding + All-to-All vs the bulk-synchronous baseline on
	// flat and hierarchical library All-to-Alls.
	// Local batch B/(nodes*gpus) must stay a multiple of the 32-row
	// slice up to the largest sweep shape (8x4 -> 32 ranks).
	c := embConfig{batch: 1024, tables: 64}
	if opt.Quick {
		c = embConfig{batch: 512, tables: 16}
	}
	flatCfg := core.DefaultConfig()
	flatCfg.Collective = collectives.Flat
	hierCfg := core.DefaultConfig()
	hierCfg.Collective = collectives.Hierarchical
	flat := embeddingPoint(nodes, gpusPerNode, c, flatCfg)
	// Collective only affects the baseline, so the fused run is shared.
	hierBase := embeddingRun(nodes, gpusPerNode, c, hierCfg, false)
	res.Rows = append(res.Rows, Row{
		Label:    fmt.Sprintf("%s emb %s", label, c.label()),
		Baseline: flat.Baseline, Fused: flat.Fused,
	})
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%s emb+A2A %s: baseline flat %v, baseline hier %v, fused %v (%.1f%% vs flat baseline)",
		label, c.label(), flat.Baseline, hierBase, flat.Fused,
		100*(1-float64(flat.Fused)/float64(flat.Baseline))))
	return res, nil
}

// allReduceTime measures one library AllReduce of elems float32 on a
// freshly built nodes x gpus cluster (timing mode).
func allReduceTime(nodes, gpusPerNode, elems int, algo collectives.Algo) sim.Duration {
	pl, w := clusterWorld(nodes, gpusPerNode)
	c := collectives.New(pl, allPEs(pl))
	data := w.Malloc(elems)
	pl.E.Go("ar", func(p *sim.Proc) { c.AllReduce(p, data, 0, elems, algo) })
	return sim.Duration(pl.E.Run())
}
