package astra

import "testing"

// BenchmarkTrainIteration replays one fused iteration of the full
// 128-node Table II torus per op (fusionbench -fig 15 runs the same
// replay, baseline and fused).
func BenchmarkTrainIteration(b *testing.B) {
	s, err := New(DefaultSystem(), DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := s.TrainIteration(true); r.Total <= 0 {
			b.Fatal("empty replay")
		}
	}
}
