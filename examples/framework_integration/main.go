// Framework integration (paper §III-D): the integration layer a
// framework sees. The model is captured as a typed computation graph
// whose nodes carry the same stable operator names the torch-style
// registry exposes; the fusion pass — not the user — swaps the
// bulk-synchronous embedding_bag → all_to_all pair for the
// fused::embedding_all2all operator, and the results are verified to be
// bit-identical. The registry itself is still printed (and still
// dispatchable) for extensions that hook in by name.
//
//	go run ./examples/framework_integration
package main

import (
	"fmt"
	"log"

	"fusedcc"
)

func main() {
	spec := fusedcc.EmbeddingSpec{
		TablesPerGPU: 4, Rows: 4096, Dim: 64,
		GlobalBatch: 128, AvgPooling: 16, SliceRows: 8, Seed: 7,
	}

	type outcome struct {
		rep *fusedcc.GraphReport
		out []float32
	}
	runAs := func(mode fusedcc.ExecMode) outcome {
		sys, err := fusedcc.NewScaleOut(2, fusedcc.Options{Functional: true})
		if err != nil {
			log.Fatal(err)
		}
		g := sys.NewGraph(fusedcc.DefaultOperatorConfig())
		pooled, err := g.EmbeddingBagFromSpec("emb_pool", spec)
		if err != nil {
			log.Fatal(err)
		}
		out, err := g.AllToAll("emb_a2a", pooled)
		if err != nil {
			log.Fatal(err)
		}
		rep := sys.RunGraph(g, mode)
		return outcome{rep, append([]float32(nil), out.Symm().On(0).Data()...)}
	}

	fmt.Println("registered operators (torch-style registry, for by-name extensions):")
	{
		sys, err := fusedcc.NewScaleOut(2, fusedcc.Options{})
		if err != nil {
			log.Fatal(err)
		}
		for _, name := range sys.Torch.Ops() {
			fmt.Println("  ", name)
		}
	}

	base := runAs(fusedcc.Eager)
	fused := runAs(fusedcc.Compiled)
	for i := range fused.out {
		if fused.out[i] != base.out[i] {
			log.Fatalf("graph rewrite changed results at %d", i)
		}
	}
	fmt.Println("\nfusion pass preserved results bit-for-bit")
	fmt.Print(fused.rep.Select)
	fmt.Printf("eager    %v\n", base.rep.Duration())
	fmt.Printf("compiled %v (%.1f%% faster)\n",
		fused.rep.Duration(),
		100*(1-float64(fused.rep.Duration())/float64(base.rep.Duration())))
}
