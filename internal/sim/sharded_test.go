package sim

import (
	"fmt"
	"strings"
	"testing"
)

// ringLinks builds a latency-l ring over n nodes.
func ringLinks(n int, l Duration) []Link {
	ls := make([]Link, n)
	for i := 0; i < n; i++ {
		ls[i] = Link{A: i, B: (i + 1) % n, Latency: l}
	}
	return ls
}

func TestPartitionBalancedRing(t *testing.T) {
	p := PartitionNodes(8, 4, ringLinks(8, 700))
	if p.Shards != 4 {
		t.Fatalf("shards = %d, want 4", p.Shards)
	}
	if p.Lookahead != 700 {
		t.Fatalf("lookahead = %v, want 700", p.Lookahead)
	}
	counts := make([]int, p.Shards)
	for n, s := range p.ShardOf {
		if s < 0 || s >= p.Shards {
			t.Fatalf("node %d on shard %d out of range", n, s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c != 2 {
			t.Errorf("shard %d holds %d nodes, want 2", s, c)
		}
	}
	if p.Note != "" {
		t.Errorf("unexpected note %q", p.Note)
	}
}

func TestPartitionClampsToNodes(t *testing.T) {
	p := PartitionNodes(3, 16, ringLinks(3, 10))
	if p.Shards != 3 {
		t.Fatalf("shards = %d, want 3 (clamped to node count)", p.Shards)
	}
}

func TestPartitionLookaheadIsMinCrossShardLatency(t *testing.T) {
	// Mixed latencies: the 2000 link stays inside a shard (nodes 0-1),
	// so only the 500 and 900 links bound the window.
	links := []Link{
		{A: 0, B: 1, Latency: 2000},
		{A: 1, B: 2, Latency: 900},
		{A: 2, B: 3, Latency: 500},
		{A: 3, B: 0, Latency: 500},
	}
	p := PartitionNodes(4, 2, links)
	if p.Shards != 2 {
		t.Fatalf("shards = %d, want 2", p.Shards)
	}
	if p.ShardOf[0] != p.ShardOf[1] || p.ShardOf[2] != p.ShardOf[3] {
		t.Fatalf("unexpected assignment %v", p.ShardOf)
	}
	if p.Lookahead != 500 {
		t.Errorf("lookahead = %v, want 500", p.Lookahead)
	}
}

// Satellite: a zero-latency cross-shard link must co-shard its
// endpoints (a zero-width safe window would livelock the barrier)
// rather than livelock, and the degrade must be visible in the note.
func TestPartitionZeroLatencyMergesAndNotes(t *testing.T) {
	links := ringLinks(8, 700)
	links = append(links, Link{A: 0, B: 4, Latency: 0}) // cross-half coupling
	p := PartitionNodes(8, 2, links)
	if p.ShardOf[0] != p.ShardOf[4] {
		t.Fatalf("zero-latency-coupled nodes 0 and 4 split across shards %d/%d",
			p.ShardOf[0], p.ShardOf[4])
	}
	if !strings.Contains(p.Note, "zero-latency") {
		t.Errorf("note %q does not mention the zero-latency merge", p.Note)
	}
	if p.Shards > 1 && p.Lookahead <= 0 {
		t.Fatalf("multi-shard partition with lookahead %v would livelock", p.Lookahead)
	}
	// And the partition must actually run without hanging.
	w := NewSharded(p)
	got := make([]Time, 8)
	for i := 0; i < 8; i++ {
		i := i
		w.EngineFor(i).Go(fmt.Sprintf("n%d", i), func(pr *Proc) {
			pr.Sleep(Duration(100 * (i + 1)))
			got[i] = pr.Now()
		})
	}
	w.Run()
	for i, at := range got {
		if at != Time(100*(i+1)) {
			t.Errorf("node %d finished at %v, want %v", i, at, Time(100*(i+1)))
		}
	}
}

func TestPartitionAllZeroLatencyDegradesToSerial(t *testing.T) {
	p := PartitionNodes(4, 4, ringLinks(4, 0))
	if p.Shards != 1 {
		t.Fatalf("shards = %d, want 1", p.Shards)
	}
	if p.Note == "" {
		t.Error("degrade to serial must leave a note")
	}
	w := NewSharded(p)
	if w.Shards() != 1 || w.Note() == "" {
		t.Errorf("sharded world: shards %d note %q", w.Shards(), w.Note())
	}
}

func TestPartitionNoLinksDegrades(t *testing.T) {
	p := PartitionNodes(4, 2, nil)
	if p.Shards != 1 {
		t.Fatalf("shards = %d, want 1 (no lookahead information)", p.Shards)
	}
	if !strings.Contains(p.Note, "lookahead") {
		t.Errorf("note %q does not explain the degrade", p.Note)
	}
}

// pingPong runs a deterministic cross-node message workload on a world
// and returns every node's final clock plus the merged arrival order of
// messages at node 0.
func pingPong(w World, runner func() Time, n int, lat Duration) ([]Time, []string) {
	finish := make([]Time, n)
	var order []string
	// Every node posts rounds of messages to node 0 plus a chain to its
	// right neighbor; node 0 records arrival order.
	for i := 0; i < n; i++ {
		i := i
		e := w.EngineFor(i)
		e.Go(fmt.Sprintf("node%d", i), func(p *Proc) {
			for r := 0; r < 3; r++ {
				p.Sleep(Duration(10 * (i + 1)))
				r := r
				w.Post(i, 0, lat, func() {
					order = append(order, fmt.Sprintf("%d.%d", i, r))
				})
				w.Post(i, (i+1)%n, lat, func() {})
			}
			finish[i] = p.Now()
		})
	}
	runner()
	return finish, order
}

func TestShardedMatchesSerialTimestamps(t *testing.T) {
	const n, lat = 8, 100
	serialW := NewSharded(PartitionNodes(n, 1, ringLinks(n, lat)))
	sFin, _ := pingPong(serialW, serialW.Run, n, lat)
	for _, shards := range []int{2, 4, 8} {
		shW := NewSharded(PartitionNodes(n, shards, ringLinks(n, lat)))
		if shW.Shards() != shards {
			t.Fatalf("realized %d shards, want %d", shW.Shards(), shards)
		}
		fin, _ := pingPong(shW, shW.Run, n, lat)
		for i := range fin {
			if fin[i] != sFin[i] {
				t.Errorf("shards=%d node %d finished at %v, serial %v", shards, i, fin[i], sFin[i])
			}
		}
	}
}

// Satellite: cross-shard wake ordering. Waiters on one shard's flag are
// woken by adversarial same-instant posts from every other shard; the
// merge must order equal-timestamp messages deterministically (source
// shard, then source FIFO seq) so the woken values are identical to the
// serial engine's.
func TestCrossShardWakeOrdering(t *testing.T) {
	const n, lat = 4, 50
	run := func(shards int) (wakes []Time, seen []int64) {
		w := NewSharded(PartitionNodes(n, shards, ringLinks(n, lat)))
		e0 := w.EngineFor(0)
		flag := NewFlag(e0)
		// Three waiters on node 0 at successive thresholds.
		for k := 1; k <= 3; k++ {
			k := k
			e0.Go(fmt.Sprintf("waiter%d", k), func(p *Proc) {
				flag.WaitGE(p, int64(3*(n-1)))
				_ = k
				wakes = append(wakes, p.Now())
				seen = append(seen, flag.Value())
			})
		}
		// Every other node fires 3 increments that all land at the SAME
		// instant on node 0: sleep so that send time + lat coincide.
		for i := 1; i < n; i++ {
			i := i
			w.EngineFor(i).Go(fmt.Sprintf("poker%d", i), func(p *Proc) {
				for r := 0; r < 3; r++ {
					// All nodes target arrival at t=1000, 2000, 3000.
					target := Time(1000 * (r + 1))
					p.Sleep(Duration(target.Sub(p.Now())) - Duration(lat))
					w.Post(i, 0, lat, func() { flag.Add(1) })
				}
			})
		}
		w.Run()
		return
	}
	sw, ss := run(1)
	for _, shards := range []int{2, 4} {
		pw, ps := run(shards)
		if len(pw) != len(sw) {
			t.Fatalf("shards=%d woke %d waiters, serial %d", shards, len(pw), len(sw))
		}
		for i := range sw {
			if pw[i] != sw[i] || ps[i] != ss[i] {
				t.Errorf("shards=%d waiter %d woke at %v (flag %d), serial %v (flag %d)",
					shards, i, pw[i], ps[i], sw[i], ss[i])
			}
		}
	}
}

// Rendezvous across shards: pairs of processes on different shards meet
// through posted messages; the meeting instants must match the serial
// engine's exactly.
func TestCrossShardRendezvous(t *testing.T) {
	const n, lat = 6, 70
	run := func(shards int) []Time {
		w := NewSharded(PartitionNodes(n, shards, ringLinks(n, lat)))
		met := make([]Time, n/2)
		for k := 0; k < n/2; k++ {
			k := k
			a, b := k, n-1-k
			ea, eb := w.EngineFor(a), w.EngineFor(b)
			ready := NewFlag(ea)
			reply := NewFlag(eb)
			ea.Go(fmt.Sprintf("a%d", k), func(p *Proc) {
				p.Sleep(Duration(13 * (k + 1)))
				w.Post(a, b, lat, func() { reply.Add(1) })
				ready.WaitGE(p, 1)
				met[k] = p.Now()
			})
			eb.Go(fmt.Sprintf("b%d", k), func(p *Proc) {
				reply.WaitGE(p, 1)
				w.Post(b, a, lat, func() { ready.Add(1) })
			})
		}
		w.Run()
		return met
	}
	want := run(1)
	for _, shards := range []int{2, 3, 6} {
		got := run(shards)
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("shards=%d pair %d met at %v, serial %v", shards, k, got[k], want[k])
			}
		}
	}
}

// FIFO tie-break: two same-instant posts from ONE source must arrive in
// post order after the inter-shard merge, at any shard count.
func TestInterShardMergePreservesSourceFIFO(t *testing.T) {
	const lat = 100 // ring link latency; posts travel exactly one hop
	for _, shards := range []int{1, 2} {
		w := NewSharded(PartitionNodes(2, shards, ringLinks(2, lat)))
		var order []int
		w.EngineFor(1).Go("src", func(p *Proc) {
			p.Sleep(5)
			for k := 0; k < 4; k++ {
				k := k
				w.Post(1, 0, lat, func() { order = append(order, k) })
			}
		})
		w.Run()
		if len(order) != 4 {
			t.Fatalf("shards=%d delivered %d messages, want 4", shards, len(order))
		}
		for k, v := range order {
			if v != k {
				t.Fatalf("shards=%d merge broke source FIFO: %v", shards, order)
			}
		}
	}
}

func TestCrossShardPostBelowLookaheadPanics(t *testing.T) {
	w := NewSharded(PartitionNodes(4, 2, ringLinks(4, 100)))
	w.EngineFor(0).Go("bad", func(p *Proc) {
		//detlint:allow postdelay -- deliberately below the lookahead to prove the engine panics
		w.Post(0, 3, 50, func() {})
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("want panic for cross-shard post below lookahead")
		}
	}()
	w.Run()
}

func TestShardedDeadlockPanics(t *testing.T) {
	w := NewSharded(PartitionNodes(4, 2, ringLinks(4, 100)))
	// A waiter whose flag nobody ever sets, on each side of the cut.
	f0 := NewFlag(w.EngineFor(0))
	f3 := NewFlag(w.EngineFor(3))
	w.EngineFor(0).Go("w0", func(p *Proc) { f0.WaitGE(p, 1) })
	w.EngineFor(3).Go("w3", func(p *Proc) { f3.WaitGE(p, 1) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("want deadlock panic")
		}
		if !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	w.Run()
}

func TestShardedStatsCounters(t *testing.T) {
	const n, lat = 8, 100
	w := NewSharded(PartitionNodes(n, 4, ringLinks(n, lat)))
	pingPong(w, w.Run, n, lat)
	s := w.Stats()
	if s.Dispatched == 0 {
		t.Error("no events dispatched")
	}
	if s.Windows == 0 {
		t.Error("no conservative windows counted")
	}
	if s.MaxHeapDepth == 0 {
		t.Error("heap high-water never moved")
	}
	// Global accumulator must have absorbed at least this run.
	g := GlobalStats()
	if g.Dispatched < s.Dispatched {
		t.Errorf("global dispatched %d < run dispatched %d", g.Dispatched, s.Dispatched)
	}
	if g.Windows < s.Windows {
		t.Errorf("global windows %d < run windows %d", g.Windows, s.Windows)
	}
}

// TestShardedStatsSumsSpawned: Stats sums the procs every shard spawned.
func TestShardedStatsSumsSpawned(t *testing.T) {
	const n = 8
	w := NewSharded(PartitionNodes(n, 4, ringLinks(n, 100)))
	if w.Shards() != 4 {
		t.Fatalf("realized %d shards, want 4", w.Shards())
	}
	for i := 0; i < n; i++ {
		w.EngineFor(i).Go(fmt.Sprintf("node%d", i), func(p *Proc) { p.Sleep(10) })
	}
	w.Run()
	if got := w.Stats().Spawned; got != n {
		t.Errorf("Stats().Spawned = %d, want %d", got, n)
	}
}

func TestEngineStatsPoolAndHandoff(t *testing.T) {
	e := NewEngine()
	// Timer chain: every link is an event through the heap, so dispatch
	// counts grow and freed events come back from the pool.
	var tick func(k int)
	tick = func(k int) {
		if k < 100 {
			e.After(10, func() { tick(k + 1) })
		}
	}
	// The chain starts after the sleeper is done.
	e.After(2000, func() { tick(0) })
	e.Go("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10)
		}
	})
	e.Run()
	s := e.Stats()
	if s.Dispatched < 100 {
		t.Errorf("dispatched %d, want >= 100", s.Dispatched)
	}
	if s.PoolHits == 0 {
		t.Error("event pool never reused")
	}
}
