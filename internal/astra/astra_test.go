package astra

import (
	"testing"

	"fusedcc/internal/sim"
)

// tinySystem keeps calibration and replay fast for unit tests.
func tinySystem() SystemConfig {
	sys := DefaultSystem()
	sys.TorusW, sys.TorusH = 4, 2
	return sys
}

func tinyModel() ModelConfig {
	m := DefaultModel()
	m.TablesPerNode = 4
	m.LocalBatch = 16
	m.MLPLayers = 8
	return m
}

func TestCalibrationProducesPositiveTimes(t *testing.T) {
	s, err := New(tinySystem(), tinyModel())
	if err != nil {
		t.Fatal(err)
	}
	ts := s.Times
	for _, tc := range []struct {
		name string
		d    sim.Duration
	}{
		{"emb_fwd", ts.EmbeddingFwd}, {"emb_bwd", ts.EmbeddingBwd},
		{"mlp_bottom", ts.MLPBottomFwd}, {"mlp_top", ts.MLPTopFwd},
		{"mlp_bwd", ts.MLPBwd}, {"interaction", ts.Interaction},
	} {
		if tc.d <= 0 {
			t.Errorf("%s = %v, want > 0", tc.name, tc.d)
		}
	}
	if ts.EmbeddingBwd <= ts.EmbeddingFwd {
		t.Error("embedding backward should cost more than forward")
	}
}

func TestEmbeddingTimeScalesWithPooling(t *testing.T) {
	m1, m2 := tinyModel(), tinyModel()
	m2.AvgPooling = 2 * m1.AvgPooling
	s1, err := New(tinySystem(), m1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(tinySystem(), m2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Times.EmbeddingFwd <= s1.Times.EmbeddingFwd {
		t.Error("doubling pooling must raise embedding time")
	}
}

func TestFusedIterationFaster(t *testing.T) {
	s, err := New(tinySystem(), tinyModel())
	if err != nil {
		t.Fatal(err)
	}
	base := s.TrainIteration(false)
	fused := s.TrainIteration(true)
	if fused.Total >= base.Total {
		t.Errorf("fused iteration %v not faster than baseline %v", fused.Total, base.Total)
	}
	// The saving must not exceed the total serialized A2A + overlap
	// budget — sanity against a broken overlap model.
	if fused.Total < base.Total/2 {
		t.Errorf("fused %v suspiciously faster than baseline %v", fused.Total, base.Total)
	}
}

// TestShardCountInvariance is the byte-identity contract of the
// conservative sharded engine: the replay's simulated makespan must be
// identical at every shard count, for both configurations.
func TestShardCountInvariance(t *testing.T) {
	s, err := New(tinySystem(), tinyModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, fused := range []bool{false, true} {
		want := s.TrainIterationOpt(fused, 1)
		if want.Shards != 1 {
			t.Fatalf("serial run realized %d shards", want.Shards)
		}
		for _, shards := range []int{2, 4, 8} {
			got := s.TrainIterationOpt(fused, shards)
			if got.Shards != shards {
				t.Errorf("fused=%v requested %d shards, realized %d (note %q)",
					fused, shards, got.Shards, got.Note)
			}
			if got.Total != want.Total {
				t.Errorf("fused=%v shards=%d total %v diverges from serial %v",
					fused, shards, got.Total, want.Total)
			}
		}
	}
}

// TestQuickShapeTotals pins the replay's makespans on Fig 15's -quick
// shape (a 4x4 torus, 24 tables per node, local batch 64, 12 MLP
// layers) on one engine and on two shards, so a drift in the replay
// fails here and not only in the full-size CI gate. Each iteration
// spawns one proc per node; the bottom MLP and the gradient AllReduce
// are timers.
func TestQuickShapeTotals(t *testing.T) {
	sys := DefaultSystem()
	sys.TorusW, sys.TorusH = 4, 4
	m := DefaultModel()
	m.TablesPerNode = 24
	m.LocalBatch = 64
	m.MLPLayers = 12
	s, err := New(sys, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		fused bool
		want  sim.Duration
	}{{true, 4_453_954}, {false, 4_795_904}} {
		for _, shards := range []int{1, 2} {
			spawned := sim.GlobalStats().Spawned
			got := s.TrainIterationOpt(c.fused, shards)
			if got.Total != c.want {
				t.Errorf("fused=%v shards=%d: total %d ns, want %d", c.fused, shards, int64(got.Total), int64(c.want))
			}
			if n := sim.GlobalStats().Spawned - spawned; n != uint64(s.Nodes()) {
				t.Errorf("fused=%v shards=%d: spawned %d procs, want one per node (%d)", c.fused, shards, n, s.Nodes())
			}
		}
	}
}

func TestIterationDeterministic(t *testing.T) {
	s, err := New(tinySystem(), tinyModel())
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.TrainIteration(true), s.TrainIteration(true)
	if a.Total != b.Total {
		t.Errorf("nondeterministic: %v vs %v", a.Total, b.Total)
	}
}

func TestPhasesReported(t *testing.T) {
	s, err := New(tinySystem(), tinyModel())
	if err != nil {
		t.Fatal(err)
	}
	res := s.TrainIteration(false)
	for _, key := range []string{"emb_fwd", "emb_bwd", "mlp_fwd", "mlp_bwd", "interaction"} {
		if res.Phases[key] <= 0 {
			t.Errorf("phase %s missing", key)
		}
	}
	if res.Total <= res.Phases["emb_fwd"] {
		t.Error("total must exceed a single phase")
	}
}

func TestValidation(t *testing.T) {
	sys := tinySystem()
	sys.TorusW = 1
	if _, err := New(sys, tinyModel()); err == nil {
		t.Error("want error for degenerate torus")
	}
	m := tinyModel()
	m.Chunks = 0
	if _, err := New(tinySystem(), m); err == nil {
		t.Error("want error for zero chunks")
	}
}

func TestDefaultsMatchTableII(t *testing.T) {
	sys := DefaultSystem()
	if sys.TorusW*sys.TorusH != 128 {
		t.Errorf("default torus %dx%d != 128 nodes", sys.TorusW, sys.TorusH)
	}
	if sys.LinkBandwidth != 25e9 {
		t.Errorf("link bw = %g, want 25 GB/s (200 Gb/s)", sys.LinkBandwidth)
	}
	if sys.HopLatency != 700*sim.Nanosecond {
		t.Errorf("hop latency = %v, want 700ns", sys.HopLatency)
	}
	m := DefaultModel()
	if m.EmbeddingDim != 92 || m.MLPLayers != 43 || m.MLPAvgSize != 682 || m.AvgPooling != 70 {
		t.Errorf("model defaults diverge from Table II: %+v", m)
	}
}

func TestGlobalBatch(t *testing.T) {
	s, err := New(tinySystem(), tinyModel())
	if err != nil {
		t.Fatal(err)
	}
	if s.GlobalBatch() != 8*16 {
		t.Errorf("global batch = %d", s.GlobalBatch())
	}
}
