// Graph capture & fusion compile: the §III-D integration story as an
// API. A DLRM-style embedding exchange, a tensor-parallel GEMV, and an
// MoE combine GEMM are captured as one typed computation graph of
// compute and collective nodes; the same graph then runs twice —
// eagerly (bulk-synchronous kernels + library collectives) and compiled,
// where the fusion pass rewrites every adjacent compute→collective pair
// to the corresponding fused operator. The outputs are verified
// bit-for-bit and the per-node reports are printed side by side.
//
//	go run ./examples/graph_compile
package main

import (
	"fmt"
	"log"

	"fusedcc"
)

func main() {
	sys, err := fusedcc.NewCluster(2, 2, fusedcc.Options{Functional: true})
	if err != nil {
		log.Fatal(err)
	}

	// Capture: three compute→collective pairs in one graph. Nothing
	// here names a fused operator — fusion is the compiler's job.
	g := sys.NewGraph(fusedcc.DefaultOperatorConfig())
	pooled, err := g.EmbeddingBagFromSpec("emb_pool", fusedcc.EmbeddingSpec{
		TablesPerGPU: 4, Rows: 4096, Dim: 64,
		GlobalBatch: 128, AvgPooling: 16, SliceRows: 8, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	emb, err := g.AllToAll("emb_a2a", pooled)
	if err != nil {
		log.Fatal(err)
	}
	partial, err := g.GEMVFromSpec("ffn2", fusedcc.GEMVSpec{M: 2048, K: 1024, TileM: 64, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	reduced, err := g.AllReduce("ffn2_allreduce", partial)
	if err != nil {
		log.Fatal(err)
	}
	expert, err := g.MatMulFromSpec("expert_ffn", fusedcc.GEMMSpec{
		Tokens: 256, N: 512, K: 1024, TileM: 32, TileN: 128, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	combined, err := g.AllToAll("combine", expert)
	if err != nil {
		log.Fatal(err)
	}

	// Eager run: every node bulk-synchronous.
	eager := sys.RunGraph(g, fusedcc.Eager)
	snapshot := map[string][]float32{
		"embedding": append([]float32(nil), emb.Symm().On(0).Data()...),
		"gemv":      append([]float32(nil), reduced.Symm().On(0).Data()...),
		"gemm":      append([]float32(nil), combined.Symm().On(0).Data()...),
	}

	// Compiled run: the fusion pass rewrites all three pairs.
	compiled := sys.RunGraph(g, fusedcc.Compiled)
	fmt.Print(compiled.Select)

	for name, want := range snapshot {
		got := map[string][]float32{
			"embedding": emb.Symm().On(0).Data(),
			"gemv":      reduced.Symm().On(0).Data(),
			"gemm":      combined.Symm().On(0).Data(),
		}[name]
		for i := range want {
			if got[i] != want[i] {
				log.Fatalf("%s elem %d: compiled %g != eager %g", name, i, got[i], want[i])
			}
		}
	}
	fmt.Println("compiled results bit-exact against eager")

	fmt.Println()
	fmt.Print(eager)
	fmt.Println()
	fmt.Print(compiled)
	fmt.Printf("\nmakespan: eager %v -> compiled %v (%.1f%% faster)\n",
		eager.Duration(), compiled.Duration(),
		100*(1-float64(compiled.Duration())/float64(eager.Duration())))
}
