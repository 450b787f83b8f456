package transformer

import (
	"reflect"
	"testing"

	"fusedcc/internal/core"
	"fusedcc/internal/graph"
	"fusedcc/internal/sim"
)

func smallDecoderCfg(layers int) DecoderConfig {
	return DecoderConfig{Layers: layers, Hidden: 64, FFN: 128, TileM: 8, Seed: 3}
}

// TestDecoderStackBitExactAcrossModes runs the same N-layer decoder in
// all three execution modes and verifies every layer's reduced FFN
// output is bit-identical — fusion and chunked pipelining are schedule
// transformations, never numeric ones.
func TestDecoderStackBitExactAcrossModes(t *testing.T) {
	const layers = 3
	e := sim.NewEngine()
	pl, w := testWorld(e, true)
	d, err := NewDecoder(w, pes(pl), smallDecoderCfg(layers), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks) != layers {
		t.Fatalf("decoder has %d blocks, want %d", len(d.Blocks), layers)
	}
	var want [][]float32
	e.Go("modes", func(p *sim.Proc) {
		d.StepReport(p, graph.Eager)
		for _, b := range d.Blocks {
			want = append(want, append([]float32(nil), b.Out.On(0).Data()...))
		}
		d.Executor().Chunks = 2
		for _, mode := range []graph.Mode{graph.Compiled, graph.Pipelined, graph.Wavefront, graph.Auto} {
			d.StepReport(p, mode)
			for l, b := range d.Blocks {
				got := b.Out.On(0).Data()
				for i := range want[l] {
					if got[i] != want[l][i] {
						t.Fatalf("%v layer %d elem %d: %g != eager %g", mode, l, i, got[i], want[l][i])
					}
				}
			}
		}
	})
	e.Run()
}

// TestDecoderLayersChainInOrder verifies the stack is one graph whose
// layers serialize through the inter-layer dependency.
func TestDecoderLayersChainInOrder(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, false)
	d, err := NewDecoder(w, pes(pl), smallDecoderCfg(2), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rep *graph.Report
	e.Go("step", func(p *sim.Proc) { rep = d.StepReport(p, graph.Eager) })
	e.Run()
	// Per layer: attn, attn_allreduce, ffn1+act, ffn2, allreduce.
	if len(rep.Nodes) != 10 {
		t.Fatalf("decoder graph has %d nodes, want 10", len(rep.Nodes))
	}
	l0End := rep.Node("l0.allreduce").End
	l1Start := rep.Node("l1.attn").Start
	if l1Start < l0End {
		t.Errorf("layer 1 started %v before layer 0 finished %v", l1Start, l0End)
	}
}

// TestDecoderPipelinedReportsStreams verifies a pipelined decoder step
// produces chunked pair nodes and per-stream occupancy.
func TestDecoderPipelinedReportsStreams(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, false)
	d, err := NewDecoder(w, pes(pl), smallDecoderCfg(2), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.Executor().Chunks = 2
	var rep *graph.Report
	e.Go("step", func(p *sim.Proc) { rep = d.StepReport(p, graph.Pipelined) })
	e.Run()
	if len(rep.Select.Decisions) != 2 {
		t.Fatalf("decisions = %+v, want one per layer", rep.Select.Decisions)
	}
	for _, d := range rep.Select.Decisions {
		if d.Choice != graph.Pipelined || d.Chunks != 2 {
			t.Errorf("decision %+v, want pipelined@2", d)
		}
	}
	if rep.Node("l0.ffn2#0") == nil || rep.Node("l1.allreduce#1") == nil {
		t.Fatal("chunked pair nodes missing from report")
	}
	if len(rep.Streams) != len(d.PEs) {
		t.Fatalf("stream reports = %d, want %d", len(rep.Streams), len(d.PEs))
	}
	if comp, comm := rep.StreamOccupancy(); comp <= 0 || comm <= 0 {
		t.Errorf("occupancy compute=%.2f comm=%.2f", comp, comm)
	}
}

// TestDecoderWavefrontFallsBackToPerPair pins the honesty of the
// wavefront proof obligation: a GEMV + AllReduce pair reads its whole
// input vector (ChunkIn reports no range), and the decoder's attention
// stand-in is not rowwise, so the wavefront pass must rewire NO layer
// boundary — it degenerates to per-pair pipelining with zero joins.
func TestDecoderWavefrontFallsBackToPerPair(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, false)
	d, err := NewDecoder(w, pes(pl), smallDecoderCfg(2), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.Executor().Chunks = 2
	var rep *graph.Report
	e.Go("step", func(p *sim.Proc) { rep = d.StepReport(p, graph.Wavefront) })
	e.Run()
	if len(rep.Select.Decisions) != 2 {
		t.Fatalf("plan = %+v", rep.Select)
	}
	for _, d := range rep.Select.Decisions {
		if d.Choice != graph.Wavefront || d.Chunks != 2 {
			t.Errorf("decision %+v, want wavefront@2", d)
		}
	}
	if len(rep.Select.Joins) != 0 || rep.Select.RowSplits != 0 {
		t.Errorf("decoder must not wavefront (GEMV reads its full input): joins %+v, row splits %d",
			rep.Select.Joins, rep.Select.RowSplits)
	}
}

// TestDecoderExecutorMemoAcrossModes pins the executor's single
// lowering memo: one Executor runs one decoder graph in all five modes,
// interleaved, over two rounds with Chunks raised from 2 to 4 between
// them. Every report must equal a fresh executor's run of the same mode
// and K, so no mode ever replays another mode's or another K's plan. A
// repeat run within a round must hit the memo, and across rounds only
// the modes whose plan depends on K may re-plan.
func TestDecoderExecutorMemoAcrossModes(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, false)
	d, err := NewDecoder(w, pes(pl), smallDecoderCfg(2), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func(x *graph.Executor, mode graph.Mode) (rep *graph.Report) {
		e.Go("step", func(p *sim.Proc) { rep = x.Execute(p, d.Graph(), mode) })
		e.Run()
		return rep
	}
	x := d.Executor()
	x.Streams = true
	modes := []graph.Mode{graph.Eager, graph.Compiled, graph.Pipelined, graph.Wavefront, graph.Auto}
	first := map[graph.Mode]*graph.SelectReport{}
	for _, k := range []int{2, 4} {
		x.Chunks = k
		for _, mode := range modes {
			got := run(x, mode)
			want := run(&graph.Executor{Chunks: k, Streams: true}, mode)
			if !reflect.DeepEqual(got.Select, want.Select) {
				t.Errorf("%v@%d: memoized plan %+v != fresh plan %+v", mode, k, got.Select, want.Select)
			}
			if got.Duration() != want.Duration() {
				t.Errorf("%v@%d: memoized run %v != fresh run %v", mode, k, got.Duration(), want.Duration())
			}
			if mode == graph.Eager {
				if got.Select != nil {
					t.Errorf("eager run reported a plan: %+v", got.Select)
				}
				continue
			}
			if again := run(x, mode); again.Select != got.Select {
				t.Errorf("%v@%d: repeat run re-planned instead of hitting the memo", mode, k)
			}
			kDependent := mode == graph.Pipelined || mode == graph.Wavefront
			if k == 2 {
				first[mode] = got.Select
			} else if replanned := got.Select != first[mode]; replanned != kDependent {
				t.Errorf("%v: re-planned=%v after Chunks 2 -> 4, want %v", mode, replanned, kDependent)
			}
			if kDependent && got.Select.Decisions[0].Chunks != k {
				t.Errorf("%v@%d: planned depth %d", mode, k, got.Select.Decisions[0].Chunks)
			}
		}
	}
}

func TestDecoderRejectsBadConfig(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e, false)
	if _, err := NewDecoder(w, pes(pl), DecoderConfig{Layers: 0, Hidden: 64, FFN: 128, TileM: 8}, core.DefaultConfig()); err == nil {
		t.Error("zero layers must error")
	}
	if _, err := NewDecoder(w, pes(pl), DecoderConfig{Layers: 2, Hidden: 64, FFN: 130, TileM: 8}, core.DefaultConfig()); err == nil {
		t.Error("indivisible FFN must error")
	}
}
