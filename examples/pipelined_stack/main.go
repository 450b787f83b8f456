// Pipelined-stack example: multi-layer models, five execution models.
//
// Part 1 — a 3-layer transformer decoder (attention stand-in + tensor-
// parallel FFN per layer) built as a single computation graph and run
// Eager (bulk-synchronous), Pipelined (each GEMV → AllReduce pair
// becomes chunk chains whose collectives overlap later chunks' compute
// on per-GPU streams), Compiled (every pair becomes the fused
// persistent kernel), Auto (the cost model prices the forms per pair
// and picks the predicted fastest), and Wavefront — each mode a policy
// over one plan, reported the same way. That is the fusion-vs-
// pipelining comparison at the heart of the paper's related work, plus
// the CoCoNet/GC3-style automation of the choice.
//
// Part 2 — a 4-layer MoE stack in Pipelined vs Wavefront: the MoE
// layers are token-banded end to end (gate, dispatch, and expert FFN
// are declared rowwise), so the wavefront lowering replaces every
// layer-boundary join with chunk-granular edges — layer l+1's chunk c
// waits only for layer l's chunk c — and the per-stream occupancy
// report shows the drains disappearing. The decoder, by contrast,
// provably cannot wavefront (a GEMV reads its whole input vector), so
// Wavefront mode on it falls back to per-pair pipelining with zero
// joins.
package main

import (
	"fmt"
	"log"

	"fusedcc"
)

func report(rep *fusedcc.GraphReport) {
	fmt.Printf("  %-9s makespan %v", rep.Mode, rep.Duration())
	if comp, comm := rep.StreamOccupancy(); len(rep.Streams) > 0 {
		fmt.Printf("  (compute %.0f%%, comm %.0f%% occupancy, overlap eff %.0f%%)",
			100*comp, 100*comm, 100*rep.OverlapEfficiency())
	}
	fmt.Println()
}

func main() {
	sys, err := fusedcc.NewScaleUp(4, fusedcc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	dec, err := sys.NewTransformerDecoder(fusedcc.DecoderConfig{
		Layers: 3, Hidden: 4096, FFN: 16384, TileM: 2, Seed: 1,
	}, fusedcc.DefaultOperatorConfig())
	if err != nil {
		log.Fatal(err)
	}

	x := dec.Executor()
	x.Chunks = 2
	x.Streams = true // stream-aware scheduling in every mode

	fmt.Println("3-layer decoder on a 4-GPU scale-up node, one graph, five execution modes:")
	for _, mode := range []fusedcc.ExecMode{fusedcc.Eager, fusedcc.Pipelined, fusedcc.Compiled, fusedcc.Auto, fusedcc.Wavefront} {
		var rep *fusedcc.GraphReport
		sys.Run(func(p *fusedcc.Proc) { rep = x.Execute(p, dec.Graph(), mode) })
		fmt.Println()
		report(rep)
		// Every non-eager mode lowers one plan and reports it the same
		// way. The decoder cannot wavefront: GEMV reads its whole input,
		// so Wavefront proves no join aligns and reports zero.
		if rep.Select != nil {
			fmt.Printf("    %s", rep.Select)
		}
	}

	// Part 2: the token-banded MoE stack is where cross-layer chunk
	// dependencies pay — the wavefront removes the L-1 layer-boundary
	// pipeline drains.
	mcfg := fusedcc.MoEConfig()
	moe, err := sys.NewMoEStack(mcfg, 4, fusedcc.DefaultOperatorConfig())
	if err != nil {
		log.Fatal(err)
	}
	mx := moe.Executor()
	mx.Chunks = 2
	mx.Streams = true

	fmt.Println("\n4-layer MoE stack, per-pair pipelining vs inter-layer wavefront:")
	fmt.Println()
	for _, mode := range []fusedcc.ExecMode{fusedcc.Pipelined, fusedcc.Wavefront} {
		var rep *fusedcc.GraphReport
		sys.Run(func(p *fusedcc.Proc) { rep = mx.Execute(p, moe.Graph(), mode) })
		report(rep)
		if mode == fusedcc.Wavefront {
			fmt.Printf("    %s", rep.Select)
			fmt.Println("    per-stream occupancy with the layer drains rewired:")
			for _, s := range rep.Streams {
				fmt.Printf("      gpu%d: compute busy %v, comm busy %v, overlap %v\n",
					s.PE, s.ComputeBusy, s.CommBusy, s.Overlap)
			}
		}
	}
}
