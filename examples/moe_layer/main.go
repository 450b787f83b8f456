// Mixture-of-Experts layer: expert parallelism across four GPUs with
// top-2 routing (paper §II-A, Fig 4), executed as a computation graph.
// The dispatch All-to-All stays a library collective on both paths; in
// compiled mode the fusion pass rewrites the trailing MatMul → AllToAll
// pair into the Triton-style fused GEMM + combine kernel (§III-D).
//
//	go run ./examples/moe_layer
package main

import (
	"fmt"
	"log"

	"fusedcc"
)

func main() {
	cfg := fusedcc.MoEConfig()
	cfg.TokensPerGPU = 1024
	cfg.ModelDim = 1024
	cfg.FFNDim = 4096
	cfg.TileM = 32
	cfg.TileN = 128

	run := func(mode fusedcc.ExecMode) *fusedcc.GraphReport {
		sys, err := fusedcc.NewScaleUp(4, fusedcc.Options{})
		if err != nil {
			log.Fatal(err)
		}
		layer, err := sys.NewMoELayer(cfg, fusedcc.DefaultOperatorConfig())
		if err != nil {
			log.Fatal(err)
		}
		var rep *fusedcc.GraphReport
		sys.Run(func(p *fusedcc.Proc) { rep = layer.StepReport(p, mode) })
		return rep
	}

	base := run(fusedcc.Eager)
	fused := run(fusedcc.Compiled)
	fmt.Printf("MoE layer (4 experts, top-%d, %d tokens/GPU, dmodel %d, dffn %d):\n",
		cfg.TopK, cfg.TokensPerGPU, cfg.ModelDim, cfg.FFNDim)
	fmt.Printf("  baseline (GEMM kernel then combine All-to-All): %v\n", base.Duration())
	fmt.Printf("  fused (tiles stored to origin GPU as computed): %v\n", fused.Duration())
	fmt.Printf("  layer-time reduction: %.1f%%\n", 100*(1-float64(fused.Duration())/float64(base.Duration())))
}
