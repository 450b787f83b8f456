package core

import (
	"testing"

	"fusedcc/internal/sim"
)

// The chunked phase entry points are the substrate of the pipelined
// execution mode: K compute chunks and K collective chunks must together
// perform exactly the work of the full bulk-synchronous phases, so the
// partitioned graph is bit-exact with eager by construction. These tests
// run every chunk sequentially and diff the outputs against a full-phase
// run on an identical world, including a chunk count that does not
// divide the work evenly.

func TestGEMVChunkedPhasesBitExact(t *testing.T) {
	const m, kdim, tile = 96, 32, 8 // 12 tiles
	run := func(chunks int) []float32 {
		e := sim.NewEngine()
		_, w, pes, gemvs := gemvSetup(e, m, kdim, tile)
		op, err := NewGEMVAllReduce(w, pes, gemvs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		runOp(e, func(p *sim.Proc) Report {
			for c := 0; c < chunks; c++ {
				op.RunComputeChunk(p, c, chunks)
				op.RunCollectiveChunk(p, c, chunks)
			}
			return Report{}
		})
		return append([]float32(nil), op.Out.On(pes[0]).Data()...)
	}
	full := func() []float32 {
		e := sim.NewEngine()
		_, w, pes, gemvs := gemvSetup(e, m, kdim, tile)
		op, err := NewGEMVAllReduce(w, pes, gemvs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		runOp(e, op.RunBaseline)
		return append([]float32(nil), op.Out.On(pes[0]).Data()...)
	}()
	for _, chunks := range []int{2, 5} { // 5 does not divide 12 tiles
		got := run(chunks)
		for i := range full {
			if got[i] != full[i] {
				t.Fatalf("K=%d elem %d: chunked %g != full %g", chunks, i, got[i], full[i])
			}
		}
	}
	// Chunk element ranges must tile the output exactly.
	e := sim.NewEngine()
	_, w, pes, gemvs := gemvSetup(e, m, kdim, tile)
	op, err := NewGEMVAllReduce(w, pes, gemvs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for c := 0; c < 5; c++ {
		lo, hi := op.chunkElems(c, 5)
		if lo != covered {
			t.Fatalf("chunk %d starts at %d, want %d (gap or overlap)", c, lo, covered)
		}
		covered = hi
	}
	if covered != m {
		t.Fatalf("chunks cover %d elems, want %d", covered, m)
	}
}

func TestEmbeddingChunkedPhasesBitExact(t *testing.T) {
	const tables, rows, dim, batch, pooling, slice = 5, 64, 8, 32, 4, 4
	build := func(e *sim.Engine) (*EmbeddingAllToAll, []int) {
		pl, w := newWorld(e, 2, 2)
		pes := pesOf(pl)
		sets := buildEmbedding(pl, pes, tables, rows, dim, batch, pooling)
		op, err := NewEmbeddingAllToAll(w, pes, sets, batch, slice, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return op, pes
	}
	full := func() [][]float32 {
		e := sim.NewEngine()
		op, pes := build(e)
		runOp(e, op.RunBaseline)
		var out [][]float32
		for _, pe := range pes {
			out = append(out, append([]float32(nil), op.Out.On(pe).Data()...))
		}
		return out
	}()
	for _, chunks := range []int{2, 3} { // 3 does not divide 5 tables
		e := sim.NewEngine()
		op, pes := build(e)
		runOp(e, func(p *sim.Proc) Report {
			for c := 0; c < chunks; c++ {
				op.RunComputeChunk(p, c, chunks)
				op.RunCollectiveChunk(p, c, chunks)
			}
			return Report{}
		})
		for i, pe := range pes {
			got := op.Out.On(pe).Data()
			for j := range full[i] {
				if got[j] != full[i][j] {
					t.Fatalf("K=%d pe %d elem %d: chunked %g != full %g", chunks, pe, j, got[j], full[i][j])
				}
			}
		}
	}
}

func TestGEMMChunkedPhasesBitExact(t *testing.T) {
	full := func() [][]float32 {
		e := sim.NewEngine()
		w, pes, gemms := gemmSetup(e, 8, 12, 6, 4, 4, 4) // 2 row tiles per block
		op, err := NewGEMMAllToAll(w, pes, gemms, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		runOp(e, op.RunBaseline)
		var out [][]float32
		for _, pe := range pes {
			out = append(out, append([]float32(nil), op.Recv.On(pe).Data()...))
		}
		return out
	}()
	for _, chunks := range []int{2, 3} { // 3 exceeds the 2 row tiles: some chunks are empty
		e := sim.NewEngine()
		w, pes, gemms := gemmSetup(e, 8, 12, 6, 4, 4, 4)
		op, err := NewGEMMAllToAll(w, pes, gemms, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		runOp(e, func(p *sim.Proc) Report {
			for c := 0; c < chunks; c++ {
				op.RunComputeChunk(p, c, chunks)
				op.RunCollectiveChunk(p, c, chunks)
			}
			return Report{}
		})
		for i, pe := range pes {
			got := op.Recv.On(pe).Data()
			for j := range full[i] {
				if got[j] != full[i][j] {
					t.Fatalf("K=%d pe %d elem %d: chunked %g != full %g", chunks, pe, j, got[j], full[i][j])
				}
			}
		}
	}
}

// TestGEMMRaggedTailChunkedBitExact is the regression test for the
// ragged-tail chunking bug: with tokens % TileM != 0 the last row band
// of every destination block is shorter than TileM, and the old
// floor-division MaxChunks/chunkRows silently dropped it. Chunked,
// fused, and eager execution must all produce identical results on such
// a shape.
func TestGEMMRaggedTailChunkedBitExact(t *testing.T) {
	const tokens, n, kdim, tm, tn, ranks = 7, 12, 6, 3, 4, 4 // 7 % 3 != 0
	build := func(e *sim.Engine) (*GEMMAllToAll, []int) {
		w, pes, gemms := gemmSetup(e, tokens, n, kdim, tm, tn, ranks)
		op, err := NewGEMMAllToAll(w, pes, gemms, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return op, pes
	}
	full := func() [][]float32 {
		e := sim.NewEngine()
		op, pes := build(e)
		runOp(e, op.RunBaseline)
		var out [][]float32
		for _, pe := range pes {
			out = append(out, append([]float32(nil), op.Recv.On(pe).Data()...))
		}
		return out
	}()
	// Every chunked row band must cover each block's rows exactly once,
	// ragged tail included.
	{
		e := sim.NewEngine()
		op, _ := build(e)
		if op.MaxChunks() != 3 { // ceil(7/3)
			t.Fatalf("MaxChunks = %d, want 3", op.MaxChunks())
		}
		covered := 0
		for c := 0; c < op.MaxChunks(); c++ {
			r0, r1 := op.chunkRows(c, op.MaxChunks())
			if r0 != covered {
				t.Fatalf("chunk %d starts at row %d, want %d (gap or overlap)", c, r0, covered)
			}
			covered = r1
		}
		if covered != tokens {
			t.Fatalf("chunks cover %d rows, want %d (ragged tail dropped)", covered, tokens)
		}
	}
	for _, chunks := range []int{2, 3} {
		e := sim.NewEngine()
		op, pes := build(e)
		runOp(e, func(p *sim.Proc) Report {
			for c := 0; c < chunks; c++ {
				op.RunComputeChunk(p, c, chunks)
				op.RunCollectiveChunk(p, c, chunks)
			}
			return Report{}
		})
		for i, pe := range pes {
			got := op.Recv.On(pe).Data()
			for j := range full[i] {
				if got[j] != full[i][j] {
					t.Fatalf("K=%d pe %d elem %d: chunked %g != full %g", chunks, pe, j, got[j], full[i][j])
				}
			}
		}
	}
	// The fused path re-tiles per block too, so it stays bit-exact on the
	// same ragged shape.
	e := sim.NewEngine()
	op, pes := build(e)
	runOp(e, op.RunFused)
	for i, pe := range pes {
		got := op.Recv.On(pe).Data()
		for j := range full[i] {
			if got[j] != full[i][j] {
				t.Fatalf("fused pe %d elem %d: %g != baseline %g", pe, j, got[j], full[i][j])
			}
		}
	}
}

// TestMaxChunksFloorsAtOne covers the degenerate-granularity guard:
// every pair operator's MaxChunks must floor at 1, including the GEMM
// with fewer tokens per rank than TileM (the shape that used to clamp
// the effective chunk count to zero).
func TestMaxChunksFloorsAtOne(t *testing.T) {
	cases := []struct {
		name string
		got  func(t *testing.T) int
	}{
		{"gemm tokens<TileM", func(t *testing.T) int {
			e := sim.NewEngine()
			w, pes, gemms := gemmSetup(e, 2, 8, 4, 4, 4, 4) // 2 tokens, TileM 4
			op, err := NewGEMMAllToAll(w, pes, gemms, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return op.MaxChunks()
		}},
		{"gemv single tile", func(t *testing.T) int {
			e := sim.NewEngine()
			_, w, pes, gemvs := gemvSetup(e, 8, 16, 8) // 1 output tile
			op, err := NewGEMVAllReduce(w, pes, gemvs, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return op.MaxChunks()
		}},
		{"embedding single table", func(t *testing.T) int {
			e := sim.NewEngine()
			pl, w := newWorld(e, 1, 2)
			pes := pesOf(pl)
			sets := buildEmbedding(pl, pes, 1, 64, 8, 32, 4)
			op, err := NewEmbeddingAllToAll(w, pes, sets, 32, 4, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return op.MaxChunks()
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.got(t); got < 1 {
				t.Fatalf("MaxChunks = %d, want >= 1", got)
			}
		})
	}
	// The degenerate GEMM must also execute: one chunk covering the
	// whole (sub-TileM) block.
	e := sim.NewEngine()
	w, pes, gemms := gemmSetup(e, 2, 8, 4, 4, 4, 4)
	op, err := NewGEMMAllToAll(w, pes, gemms, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r0, r1 := op.chunkRows(0, op.MaxChunks()); r0 != 0 || r1 != 2 {
		t.Fatalf("degenerate chunk rows [%d,%d), want [0,2)", r0, r1)
	}
	runOp(e, func(p *sim.Proc) Report {
		op.RunComputeChunk(p, 0, 1)
		op.RunCollectiveChunk(p, 0, 1)
		return Report{}
	})
}

func TestMaxChunksGranularity(t *testing.T) {
	e := sim.NewEngine()
	_, w, pes, gemvs := gemvSetup(e, 96, 32, 8)
	gv, err := NewGEMVAllReduce(w, pes, gemvs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if gv.MaxChunks() != 12 {
		t.Errorf("GEMV MaxChunks = %d, want 12 tiles", gv.MaxChunks())
	}
	w2, pes2, gemms := gemmSetup(sim.NewEngine(), 8, 12, 6, 4, 4, 4)
	gm, err := NewGEMMAllToAll(w2, pes2, gemms, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if gm.MaxChunks() != 2 {
		t.Errorf("GEMM MaxChunks = %d, want 2 row tiles per block", gm.MaxChunks())
	}
}
