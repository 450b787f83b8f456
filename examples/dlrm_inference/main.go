// DLRM inference: a recommendation-model forward pass on two nodes with
// model-parallel embedding tables (paper §II-A, Fig 2) — the
// configuration where the collective is hardest to hide. The model is a
// computation graph; fused=false runs it eagerly (bulk-synchronous
// embedding + All-to-All), fused=true runs it compiled, where the
// fusion pass substitutes the fused operator.
//
//	go run ./examples/dlrm_inference
package main

import (
	"fmt"
	"log"

	"fusedcc"
)

func main() {
	cfg := fusedcc.DLRMConfig()
	cfg.TablesPerGPU = 32
	cfg.GlobalBatch = 1024
	cfg.EmbeddingDim = 256
	cfg.AvgPooling = 48
	cfg.SliceRows = 32
	cfg.RowsPerWG = 32 // lane-coarsened simulation; timing-equivalent

	run := func(mode fusedcc.ExecMode) *fusedcc.GraphReport {
		sys, err := fusedcc.NewScaleOut(2, fusedcc.Options{})
		if err != nil {
			log.Fatal(err)
		}
		model, err := sys.NewDLRM(cfg, fusedcc.DefaultOperatorConfig())
		if err != nil {
			log.Fatal(err)
		}
		var rep *fusedcc.GraphReport
		sys.Run(func(p *fusedcc.Proc) { rep = model.StepReport(p, mode) })
		return rep
	}

	base := run(fusedcc.Eager)
	fused := run(fusedcc.Compiled)
	fmt.Printf("DLRM forward, 2 nodes, %d tables/GPU, global batch %d:\n", cfg.TablesPerGPU, cfg.GlobalBatch)
	fmt.Printf("  baseline (per-table kernels + RCCL All-to-All + shuffle): %v\n", base.Duration())
	fmt.Printf("  fused (persistent kernel, slice-granular RDMA puts):      %v\n", fused.Duration())
	fmt.Printf("  end-to-end reduction: %.1f%%\n", 100*(1-float64(fused.Duration())/float64(base.Duration())))
	fmt.Printf("  fused kernel issued %d slice puts (%.1f MB) while computing\n",
		fused.RemotePuts(), fused.RemoteBytes()/1e6)
}
