package graph

import (
	"reflect"
	"sync"
	"testing"

	"fusedcc/internal/core"
	"fusedcc/internal/platform"
	"fusedcc/internal/sim"
)

// cacheTestGraph builds the three-pattern graph on a fresh engine —
// each call models one sweep point's independent instantiation of the
// same workload.
func cacheTestGraph(t *testing.T) (*platform.Platform, *Graph) {
	t.Helper()
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	buildTriple(t, g, 4)
	return pl, g
}

func TestFingerprintStableAcrossEngines(t *testing.T) {
	_, g1 := cacheTestGraph(t)
	_, g2 := cacheTestGraph(t)
	f1, f2 := fingerprint(g1), fingerprint(g2)
	if f1 != f2 {
		t.Fatalf("structurally identical graphs fingerprint differently:\n%s\nvs\n%s", f1, f2)
	}
	// A structural edit must change the fingerprint.
	g2.PerRank("extra", func(p *sim.Proc, rank, pe int) {})
	if fingerprint(g2) == f1 {
		t.Fatal("fingerprint unchanged after adding a node")
	}
}

func TestPassCacheSharesSelectPlans(t *testing.T) {
	cache := NewPassCache()
	pl1, g1 := cacheTestGraph(t)
	pl2, g2 := cacheTestGraph(t)

	x1 := Executor{Cache: cache}
	x2 := Executor{Cache: cache}
	var rep1, rep2 *Report
	drive(pl1, func(p *sim.Proc) { rep1 = x1.Execute(p, g1, Auto) })
	drive(pl2, func(p *sim.Proc) { rep2 = x2.Execute(p, g2, Auto) })

	hits, misses := cache.Stats()
	if misses != 1 || hits != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1 hit, 1 miss", hits, misses)
	}
	if !reflect.DeepEqual(rep1.Select, rep2.Select) {
		t.Errorf("replayed select report differs:\n%+v\nvs\n%+v", rep1.Select, rep2.Select)
	}
	if rep1.Duration() != rep2.Duration() {
		t.Errorf("cached-plan run duration %v != fresh run %v", rep2.Duration(), rep1.Duration())
	}

	// The cached plan must reproduce exactly what an uncached pass does.
	pl3, g3 := cacheTestGraph(t)
	var x3 Executor // no cache
	var rep3 *Report
	drive(pl3, func(p *sim.Proc) { rep3 = x3.Execute(p, g3, Auto) })
	if !reflect.DeepEqual(rep2.Select, rep3.Select) {
		t.Errorf("cache-on select report differs from cache-off:\n%+v\nvs\n%+v", rep2.Select, rep3.Select)
	}
	if rep2.Duration() != rep3.Duration() {
		t.Errorf("cache-on duration %v != cache-off %v", rep2.Duration(), rep3.Duration())
	}
}

// TestPassCacheSkipsForcedPlans pins that only Auto's priced plans go
// through the cache: the forced Compiled, Pipelined, and Wavefront plans
// are cheaper to rebuild than a fingerprint is to compute, so runs in
// those modes with Cache set neither hit nor miss, and still reproduce
// an uncached run exactly.
func TestPassCacheSkipsForcedPlans(t *testing.T) {
	cache := NewPassCache()
	for _, mode := range []Mode{Compiled, Pipelined, Wavefront} {
		for _, k := range []int{2, 4} {
			pl1, g1 := cacheTestGraph(t)
			pl2, g2 := cacheTestGraph(t)
			cached := Executor{Cache: cache, Chunks: k}
			fresh := Executor{Chunks: k}
			var rep1, rep2 *Report
			drive(pl1, func(p *sim.Proc) { rep1 = cached.Execute(p, g1, mode) })
			drive(pl2, func(p *sim.Proc) { rep2 = fresh.Execute(p, g2, mode) })
			if len(rep1.Select.Decisions) != 3 {
				t.Fatalf("%v@%d planned %d pairs, want 3", mode, k, len(rep1.Select.Decisions))
			}
			if !reflect.DeepEqual(rep1.Select, rep2.Select) || rep1.Duration() != rep2.Duration() {
				t.Errorf("%v@%d: cache-set run differs from uncached run", mode, k)
			}
		}
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 0 {
		t.Errorf("stats = %d hits, %d misses; forced plans must bypass the cache", hits, misses)
	}
}

// TestPassCacheConcurrent exercises the sweep-worker shape: independent
// engines running the same workload through one shared cache from
// multiple goroutines. Run under -race this is the cache's concurrency
// regression test.
func TestPassCacheConcurrent(t *testing.T) {
	cache := NewPassCache()
	const workers = 4
	// Warm the cache serially so every concurrent worker exercises the
	// hit path deterministically (racing cold workers may all miss).
	var warm sim.Duration
	{
		pl, g := cacheTestGraph(t)
		x := Executor{Cache: cache}
		drive(pl, func(p *sim.Proc) { warm = x.Execute(p, g, Auto).Duration() })
	}
	durs := make([]sim.Duration, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		//detlint:allow rawgo -- host-side concurrency: each worker drives its own engine; the -race run is the point
		go func() {
			defer wg.Done()
			pl, g := cacheTestGraph(t)
			x := Executor{Cache: cache}
			var rep *Report
			drive(pl, func(p *sim.Proc) { rep = x.Execute(p, g, Auto) })
			durs[i] = rep.Duration()
		}()
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if durs[i] != warm {
			t.Fatalf("worker %d duration %v != warmup %v", i, durs[i], warm)
		}
	}
	hits, misses := cache.Stats()
	if misses != 1 || hits != workers {
		t.Errorf("stats = %d hits, %d misses; want %d hits, 1 miss", hits, misses, workers)
	}
}
