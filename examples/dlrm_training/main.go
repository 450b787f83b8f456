// DLRM training step: one forward + backward iteration on two nodes,
// executed as a computation graph. The backward pass sends pooled-output
// gradients back to their table owners; in compiled mode the fusion
// pass rewrites both the forward embedding pair and the gradient
// exchange, overlapping the backward All-to-All with the embedding
// gradient scatter-add — mirroring how Fig 15's scale-out simulation
// overlaps both directions. The data-parallel MLP gradient AllReduce
// runs concurrently in both execution models.
//
//	go run ./examples/dlrm_training
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
	cfg.AvgPooling = 48
	cfg.RowsPerWG = 32

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
		sys.Run(func(p *fusedcc.Proc) { rep = model.TrainStep(p, mode) })
		return rep
	}

	base := run(fusedcc.Eager)
	fused := run(fusedcc.Compiled)
	fmt.Printf("DLRM training iteration, 2 nodes, %d tables/GPU, batch %d:\n", cfg.TablesPerGPU, cfg.GlobalBatch)
	fmt.Printf("  baseline (bulk-synchronous fwd+bwd): %v\n", base.Duration())
	fmt.Printf("  fused (both All-to-Alls overlapped): %v\n", fused.Duration())
	fmt.Printf("  iteration-time reduction: %.1f%%\n",
		100*(1-float64(fused.Duration())/float64(base.Duration())))
}
