// Transformer decode: token-phase inference through a Megatron-style
// tensor-parallel feed-forward block on four GPUs (paper §II-A, Fig 3),
// executed as a computation graph. The second linear layer's AllReduce
// — up to 46% of decode latency in production stacks — is hidden inside
// the fused GEMV + AllReduce operator the fusion pass substitutes in
// compiled mode. Runs several decode steps and reports per-token
// latency.
//
//	go run ./examples/transformer_decode
package main

import (
	"fmt"
	"log"

	"fusedcc"
)

func main() {
	cfg := fusedcc.TransformerConfig() // hidden 4096, FFN 16384, TP=4
	const steps = 8

	run := func(mode fusedcc.ExecMode) fusedcc.Duration {
		sys, err := fusedcc.NewScaleUp(4, fusedcc.Options{})
		if err != nil {
			log.Fatal(err)
		}
		ffn, err := sys.NewTransformerFFN(cfg, fusedcc.DefaultOperatorConfig())
		if err != nil {
			log.Fatal(err)
		}
		return sys.Run(func(p *fusedcc.Proc) {
			for i := 0; i < steps; i++ {
				ffn.StepReport(p, mode)
			}
		})
	}

	base := run(fusedcc.Eager)
	fused := run(fusedcc.Compiled)
	fmt.Printf("transformer FFN block (hidden %d, FFN %d, TP=4), %d decode steps:\n", cfg.Hidden, cfg.FFN, steps)
	fmt.Printf("  baseline: %v total, %v per token\n", base, base/steps)
	fmt.Printf("  fused:    %v total, %v per token\n", fused, fused/steps)
	fmt.Printf("  per-token latency reduction: %.1f%%\n", 100*(1-float64(fused)/float64(base)))
}
