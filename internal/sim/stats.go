package sim

import "sync/atomic"

// Stats are cumulative engine runtime counters. Per-engine values come
// from Engine.Stats; process-wide aggregates (across every engine a
// sweep created, safe to read concurrently) come from GlobalStats. The
// JSON field names are the BENCH speed-file schema.
type Stats struct {
	// Dispatched counts events executed.
	Dispatched uint64 `json:"events_dispatched"`
	// Spawned counts processes started (Go, ForkJoin children).
	Spawned uint64 `json:"procs_spawned"`
	// PoolHits counts event allocations served from the free list.
	PoolHits uint64 `json:"pool_reuse_hits"`
	// DirectHandoffs counts Sleeps that advanced the clock in place
	// instead of parking: no switch to the engine and back.
	DirectHandoffs uint64 `json:"direct_handoff_hits"`
	// MaxHeapDepth is the high-water mark of a single engine's (shard's)
	// pending-event heap.
	MaxHeapDepth uint64 `json:"max_heap_depth"`
	// Windows counts conservative windows executed by sharded runs.
	Windows uint64 `json:"windows"`
	// BarrierStalls counts (shard, window) slots where a shard had no
	// event inside the safe window and sat out the round.
	BarrierStalls uint64 `json:"window_barrier_stalls"`
}

// globalStats accumulates counters across all engines in the process.
var globalStats struct {
	dispatched atomic.Uint64
	spawned    atomic.Uint64
	poolHits   atomic.Uint64
	handoffs   atomic.Uint64
	maxHeap    atomic.Uint64
	windows    atomic.Uint64
	stalls     atomic.Uint64
}

// Stats returns this engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Dispatched:     e.nDispatched,
		Spawned:        e.nSpawned,
		PoolHits:       e.nPoolHits,
		DirectHandoffs: e.nHandoffs,
		MaxHeapDepth:   uint64(e.maxHeap),
	}
}

// flushStats folds the engine's counter growth since the last flush into
// the process-wide accumulator. Called on every run exit, so sweep
// workers contribute exactly once per counted event.
func (e *Engine) flushStats() {
	s := e.Stats()
	globalStats.dispatched.Add(s.Dispatched - e.reported.Dispatched)
	globalStats.spawned.Add(s.Spawned - e.reported.Spawned)
	globalStats.poolHits.Add(s.PoolHits - e.reported.PoolHits)
	globalStats.handoffs.Add(s.DirectHandoffs - e.reported.DirectHandoffs)
	atomicMax(&globalStats.maxHeap, s.MaxHeapDepth)
	e.reported = s
}

func atomicMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// GlobalStats snapshots the process-wide engine counters: the sum over
// every engine run so far (max for MaxHeapDepth), plus window-barrier
// counters from sharded runs. The -speedjson host header embeds this.
func GlobalStats() Stats {
	return Stats{
		Dispatched:     globalStats.dispatched.Load(),
		Spawned:        globalStats.spawned.Load(),
		PoolHits:       globalStats.poolHits.Load(),
		DirectHandoffs: globalStats.handoffs.Load(),
		MaxHeapDepth:   globalStats.maxHeap.Load(),
		Windows:        globalStats.windows.Load(),
		BarrierStalls:  globalStats.stalls.Load(),
	}
}
