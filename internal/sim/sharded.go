package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// World is the placement-and-messaging surface that shard-aware
// components (networks, channels, workloads) build against. A bare
// *Engine implements it by placing everything on itself and turning
// Post into After; a *Sharded spreads nodes across shard engines and
// turns Post into a timestamped inter-shard message.
type World interface {
	// EngineFor returns the engine that owns simulated node's state.
	EngineFor(node int) *Engine
	// Post schedules fn to run on node to's engine, delay after node
	// from's current instant. Across shards, delay must be at least the
	// world's lookahead.
	Post(from, to int, delay Duration, fn func())
}

// xmsg is a timestamped inter-shard message: fn runs on the destination
// shard's engine at time at. src/seq give the deterministic merge order
// among equal timestamps (FIFO per source shard, sources in id order).
type xmsg struct {
	at  Time
	src int
	seq uint64
	fn  func()
}

// errGoexit records that a shard's window ended in runtime.Goexit.
var errGoexit = errors.New("sim: process called runtime.Goexit")

// Sharded is a conservative parallel discrete-event engine in the
// Chandy-Misra tradition: the simulation is split into logical
// processes (shards), each a full serial Engine owning the heap of
// instants, free-list pool, same-instant FIFO, processes and resources
// of the simulated nodes mapped to it. Shards advance concurrently
// inside a safe window
//
//	[T, min(next event over all shards) + lookahead)
//
// where lookahead is the minimum latency of any cross-shard link: no
// shard can be affected by another's work sooner than that, so events
// below the bound are causally independent across shards. Cross-shard
// effects travel as timestamped messages (Post) collected in per-source
// outboxes during the window and merged into destination queues at the
// window barrier in deterministic (time, source shard, source seq)
// order.
//
// Simulated timestamps are independent of the shard count for
// domain-partitioned workloads: same-instant merge order can differ
// from the serial engine's global FIFO, but cross-shard interactions —
// flag increments, bandwidth-server admissions — are commutative within
// an instant, so every timestamp the simulation produces is identical
// at any shard count (enforced by tests and the CI byte-identity gate).
type Sharded struct {
	shards    []*Engine
	shardOf   []int
	lookahead Duration
	note      string

	// outbox[src][dst] is written only by shard src's execution (the
	// exclusive-runner invariant extends to it) and drained by the
	// barrier, which runs strictly after all window workers finish.
	outbox [][][]xmsg

	windows uint64
	stalls  uint64
	// flushed* track the portion already folded into the global
	// accumulator, so repeated Run calls contribute each window once.
	flushedWindows uint64
	flushedStalls  uint64
	running        bool
}

// NewSharded builds a sharded engine from a node partition. A one-shard
// partition (or one degraded to it) yields a world whose Run delegates
// to the plain serial engine.
func NewSharded(p Partition) *Sharded {
	n := p.Shards
	if n < 1 {
		n = 1
	}
	if n > 1 && p.Lookahead <= 0 {
		panic("sim: multi-shard partition without positive lookahead")
	}
	w := &Sharded{
		shardOf:   p.ShardOf,
		lookahead: p.Lookahead,
		note:      p.Note,
	}
	w.shards = make([]*Engine, n)
	w.outbox = make([][][]xmsg, n)
	for i := range w.shards {
		e := NewEngine()
		e.shard = i
		w.shards[i] = e
		w.outbox[i] = make([][]xmsg, n)
	}
	return w
}

// Shards returns the realized shard count.
func (w *Sharded) Shards() int { return len(w.shards) }

// Lookahead returns the conservative safe-window width.
func (w *Sharded) Lookahead() Duration { return w.lookahead }

// Note returns the partition's degradation note ("" when none).
func (w *Sharded) Note() string { return w.note }

// Shard returns shard i's engine.
func (w *Sharded) Shard(i int) *Engine { return w.shards[i] }

// EngineFor implements World: the engine owning node's state.
func (w *Sharded) EngineFor(node int) *Engine { return w.shards[w.shardOf[node]] }

// Post implements World. Within a shard it is a plain delayed callback;
// across shards it becomes a timestamped inter-shard message merged at
// the next window barrier. Cross-shard delays below the lookahead are a
// causality error (the partition should have co-sharded such nodes) and
// panic rather than silently corrupt the schedule.
func (w *Sharded) Post(from, to int, d Duration, fn func()) {
	sf, st := w.shardOf[from], w.shardOf[to]
	src := w.shards[sf]
	if sf == st {
		src.After(d, fn)
		return
	}
	if d < w.lookahead {
		panic(fmt.Sprintf("sim: cross-shard post node %d -> %d with delay %v below lookahead %v",
			from, to, d, w.lookahead))
	}
	src.postSeq++
	w.outbox[sf][st] = append(w.outbox[sf][st], xmsg{at: src.now.Add(d), src: sf, seq: src.postSeq, fn: fn})
}

// flush merges every outbox into its destination shard's queue. Messages
// for one destination are ordered by (time, source shard, source seq):
// deterministic regardless of which order the window's workers ran, and
// FIFO-preserving per source (mirroring the serial engine's seq
// tie-break within each source's stream).
func (w *Sharded) flush() {
	for dst, eng := range w.shards {
		var msgs []xmsg
		for src := range w.shards {
			if ms := w.outbox[src][dst]; len(ms) > 0 {
				msgs = append(msgs, ms...)
				w.outbox[src][dst] = ms[:0]
			}
		}
		if len(msgs) == 0 {
			continue
		}
		sort.Slice(msgs, func(i, j int) bool {
			if msgs[i].at != msgs[j].at {
				return msgs[i].at < msgs[j].at
			}
			if msgs[i].src != msgs[j].src {
				return msgs[i].src < msgs[j].src
			}
			return msgs[i].seq < msgs[j].seq
		})
		for _, m := range msgs {
			if m.at < eng.now {
				panic(fmt.Sprintf("sim: causality violation: message for t=%v reached shard %d already at t=%v",
					m.at, dst, eng.now))
			}
			eng.enqueue(m.at, m.fn)
		}
	}
}

// Run executes the simulation to completion and returns the latest
// shard clock. One shard runs the plain serial engine; several run the
// conservative window loop: merge messages, find the global minimum
// next event, execute every shard's events below min+lookahead
// concurrently, barrier, repeat. Run panics if the whole world
// deadlocks (blocked processes with no events or messages anywhere).
// A shard's process panic or runtime.Goexit is re-raised on Run's
// caller after the window. On each of these exits Run first stops every
// process still parked on any shard.
func (w *Sharded) Run() Time {
	if len(w.shards) == 1 {
		return w.shards[0].Run()
	}
	if w.running {
		panic("sim: Run called re-entrantly")
	}
	w.running = true
	n := len(w.shards)
	// Window workers: one persistent goroutine per shard for this run.
	work := make([]chan Time, n)
	done := make(chan int, n)
	var panics sync.Map
	for i := 0; i < n; i++ {
		work[i] = make(chan Time, 1)
		go func(i int, eng *Engine) {
			for h := range work[i] {
				func() {
					returned := false
					defer func() {
						if r := recover(); r != nil {
							panics.Store(i, r)
						} else if !returned {
							// A process called runtime.Goexit, which
							// ends this worker; hand it to the
							// coordinator, which re-raises it.
							panics.Store(i, errGoexit)
						}
						done <- i
					}()
					eng.runWindow(h)
					returned = true
				}()
			}
		}(i, w.shards[i])
	}
	clean := false
	defer func() {
		for i := 0; i < n; i++ {
			close(work[i])
		}
		if !clean {
			for _, sh := range w.shards {
				sh.stopProcs()
			}
		}
		w.running = false
	}()

	for {
		w.flush()
		minNext := Forever
		for _, sh := range w.shards {
			if t, ok := sh.NextEventTime(); ok && t < minNext {
				minNext = t
			}
		}
		if minNext == Forever {
			blocked := 0
			for _, sh := range w.shards {
				blocked += len(sh.live)
			}
			if blocked > 0 {
				panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked across %d shards with no events or messages", blocked, n))
			}
			var end Time
			for _, sh := range w.shards {
				if sh.now > end {
					end = sh.now
				}
			}
			globalStats.windows.Add(w.windows - w.flushedWindows)
			globalStats.stalls.Add(w.stalls - w.flushedStalls)
			w.flushedWindows, w.flushedStalls = w.windows, w.stalls
			clean = true
			return end
		}
		// Safe horizon: every event strictly before minNext+lookahead is
		// causally independent of the other shards' pending work (their
		// effects need at least lookahead to arrive). runWindow treats
		// the horizon inclusively, hence the -1.
		horizon := minNext.Add(w.lookahead) - 1
		w.windows++
		launched := 0
		for i, sh := range w.shards {
			if t, ok := sh.NextEventTime(); ok && t <= horizon {
				work[i] <- horizon
				launched++
			} else {
				w.stalls++
			}
		}
		for k := 0; k < launched; k++ {
			<-done
		}
		// Re-raise shard failures on the coordinating goroutine, lowest
		// shard first for determinism.
		for i := 0; i < n; i++ {
			if r, failed := panics.Load(i); failed {
				if r == errGoexit {
					runtime.Goexit()
				}
				panic(r)
			}
		}
	}
}

// Stats aggregates counters across shards: sums for event counters, the
// max over per-shard queue high-water marks, plus this run's window and
// barrier-stall counts.
func (w *Sharded) Stats() Stats {
	var s Stats
	for _, sh := range w.shards {
		es := sh.Stats()
		s.Dispatched += es.Dispatched
		s.Spawned += es.Spawned
		s.PoolHits += es.PoolHits
		if es.MaxHeapDepth > s.MaxHeapDepth {
			s.MaxHeapDepth = es.MaxHeapDepth
		}
	}
	s.Windows = w.windows
	s.BarrierStalls = w.stalls
	return s
}
