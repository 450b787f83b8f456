package core

import (
	"testing"

	"fusedcc/internal/sim"
)

// The operator estimators feed the select pass; these tests pin their
// structural invariants — chunk costs tile the full phase, the chain
// discount applies to non-head collective chunks, saturation points
// stay within the operator granularity — without asserting absolute
// times (the auto experiment validates decisions against simulation).

func TestGEMVEstimatesStructure(t *testing.T) {
	e := sim.NewEngine()
	_, w, pes, gemvs := gemvSetup(e, 4096, 1024, 8) // 512 tiles
	op, err := NewGEMVAllReduce(w, pes, gemvs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	full := op.EstimateComputeChunk(0, 1)
	if full <= 0 {
		t.Fatal("zero compute estimate")
	}
	launch := w.Platform().Device(0).Config().KernelLaunchOverhead
	var sum sim.Duration
	for c := 0; c < 4; c++ {
		sum += op.EstimateComputeChunk(c, 4) - launch
	}
	// Chunked work (net of the per-chunk launches) must price close to
	// the full phase: the chunks tile the same tiles.
	ratio := float64(sum) / float64(full-launch)
	if ratio < 0.9 || ratio > 1.3 {
		t.Errorf("chunked compute sums to %.2fx the full phase", ratio)
	}
	head := op.EstimateCollectiveChunk(0, 4)
	tail := op.EstimateCollectiveChunk(1, 4)
	if head <= tail {
		t.Errorf("head chunk %v must out-price chained chunk %v (launch + rendezvous vs flag poll)", head, tail)
	}
	if op.EstimateFused() <= 0 {
		t.Error("zero fused estimate")
	}
	if s := op.SaturationChunks(); s < 1 || s > op.MaxChunks() {
		t.Errorf("saturation %d outside [1, %d]", s, op.MaxChunks())
	}
}

func TestSaturationChunksClamp(t *testing.T) {
	// A tiny GEMV (12 tiles on an 832-slot device) must not pipeline:
	// any split leaves the device idle.
	e := sim.NewEngine()
	_, w, pes, gemvs := gemvSetup(e, 96, 32, 8)
	small, err := NewGEMVAllReduce(w, pes, gemvs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := small.SaturationChunks(); got != 1 {
		t.Errorf("12-tile saturation = %d, want 1", got)
	}
	// 4096 tiles fill the 832 slots ~5 times over: chunking up to the
	// slot multiple keeps every chunk saturated.
	e2 := sim.NewEngine()
	_, w2, pes2, gemvs2 := gemvSetup(e2, 8192, 64, 2)
	big, err := NewGEMVAllReduce(w2, pes2, gemvs2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := big.SaturationChunks(); got < 2 {
		t.Errorf("4096-tile saturation = %d, want >= 2", got)
	}
	if got, max := big.SaturationChunks(), big.MaxChunks(); got > max {
		t.Errorf("saturation %d exceeds MaxChunks %d", got, max)
	}
}

func TestEmbeddingAndGEMMEstimatesPositive(t *testing.T) {
	e := sim.NewEngine()
	pl, w := newWorld(e, 2, 2)
	pes := pesOf(pl)
	sets := buildEmbedding(pl, pes, 4, 64, 8, 32, 4)
	emb, err := NewEmbeddingAllToAll(w, pes, sets, 32, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if emb.EstimateComputeChunk(0, 1) <= 0 || emb.EstimateCollectiveChunk(0, 1) <= 0 || emb.EstimateFused() <= 0 {
		t.Error("embedding estimates must be positive")
	}
	// Chunking tables splits the launches too: two half-chunks price
	// like the full phase.
	if got, want := emb.EstimateComputeChunk(0, 2)+emb.EstimateComputeChunk(1, 2), emb.EstimateComputeChunk(0, 1); got != want {
		t.Errorf("per-table chunk estimates %v != full %v", got, want)
	}
	if s := emb.SaturationChunks(); s != emb.MaxChunks() {
		t.Errorf("embedding saturation %d, want table granularity %d", s, emb.MaxChunks())
	}

	e2 := sim.NewEngine()
	w2, pes2, gemms := gemmSetup(e2, 7, 12, 6, 3, 4, 4) // ragged tail
	gm, err := NewGEMMAllToAll(w2, pes2, gemms, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if gm.EstimateComputeChunk(0, 1) <= 0 || gm.EstimateCollectiveChunk(0, 1) <= 0 || gm.EstimateFused() <= 0 {
		t.Error("GEMM estimates must be positive")
	}
	// Ragged chunks still price every tile exactly once.
	tiles := 0
	for c := 0; c < gm.MaxChunks(); c++ {
		n, _, _, _ := gm.chunkTileStats(c, gm.MaxChunks())
		tiles += n
	}
	if tiles != gm.opTiles() {
		t.Errorf("chunk tile stats cover %d tiles, want %d", tiles, gm.opTiles())
	}
}
