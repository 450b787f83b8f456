package sim

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"
)

// goldenOrderDigest is the FNV-64a digest of goldenScenario's
// (time, actor, event) lines. A change that moves any completion by a
// nanosecond or reorders two same-instant events changes it.
const goldenOrderDigest uint64 = 0x670d3073d935d9c3

// xorshift is a tiny seeded generator for the golden scenario (detlint
// forbids math/rand).
type xorshift uint64

func (x *xorshift) intn(n int) int {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return int(uint64(*x) % uint64(n))
}

// goldenScenario runs a seeded mix of everything that arms resource
// timers and returns one "time actor event" line per logged step:
//   - kernel-launch bursts of workgroups admitted at one instant to an
//     uncapped resource whose efficiency curve reads a counter the
//     workgroups raise around their transfers (as gpu.WG.Gather does),
//     then to an equal-cap and a mixed-cap resource;
//   - a chain of TransferAsync callbacks, one admitted before Run;
//   - SetRateScale windows mid-run;
//   - a Sleep enqueued after a resource's last trigger of an instant
//     that wakes on exactly that resource's completion nanosecond;
//   - a TransferAsync followed by a Sleep past its completion.
func goldenScenario() []string {
	e := NewEngine()
	var lines []string
	log := func(actor, format string, args ...any) {
		lines = append(lines, fmt.Sprintf("%d %s %s", e.Now(), actor, fmt.Sprintf(format, args...)))
	}
	rng := xorshift(0x9e3779b97f4a7c15)

	gathers := 0
	hbm := NewResource(e, "hbm", 1.6e12, func(n int) float64 {
		return 1 / (1 + 0.02*float64(gathers) + 0.01*float64(n))
	})
	alu := NewResource(e, "alu", 1e13, nil)   // every flow capped at 1e12
	link := NewResource(e, "link", 5e10, nil) // caps drawn from linkCaps
	solo := NewResource(e, "solo", 1e9, nil)
	linkCaps := []float64{0, 2e9, 5e9, 5e9, 1e10}

	worker := func(name string, lanes int, bytes, flops, linkCap float64, wg *WaitGroup) func(*Proc) {
		return func(p *Proc) {
			log(name, "start")
			gathers += lanes
			hbm.Transfer(p, bytes, 0)
			gathers -= lanes
			log(name, "gathered hbm=%d", hbm.ActiveFlows())
			alu.Transfer(p, flops, 1e12)
			log(name, "computed alu=%d", alu.ActiveFlows())
			link.Transfer(p, bytes/2, linkCap)
			log(name, "sent link=%d", link.ActiveFlows())
			if wg != nil {
				wg.Done()
			}
		}
	}
	e.Go("launcher", func(p *Proc) {
		for round := 0; round < 12; round++ {
			var wg *WaitGroup
			if round%3 == 2 {
				wg = NewWaitGroup(e)
			}
			n := 1 + rng.intn(24)
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("k%d.wg%d", round, i)
				if wg != nil {
					wg.Add(1)
				}
				e.Go(name, worker(name, 1+rng.intn(4), float64(1+rng.intn(64))*4096,
					float64(1+rng.intn(32))*1e5, linkCaps[rng.intn(len(linkCaps))], wg))
			}
			log("launcher", "launch %d wgs=%d", round, n)
			if wg != nil {
				wg.Wait(p)
				log("launcher", "joined %d", round)
			}
			p.Sleep(Duration(rng.intn(3000)))
		}
	})

	var dma func(k int)
	dma = func(k int) {
		if k == 10 {
			return
		}
		log("dma", "post %d", k)
		link.TransferAsync(float64(1+rng.intn(16))*65536, linkCaps[rng.intn(len(linkCaps))], func() {
			log("dma", "done %d link=%d", k, link.ActiveFlows())
			dma(k + 1)
		})
	}
	link.TransferAsync(256*1024, 0, func() { log("host", "done link=%d", link.ActiveFlows()) })
	e.At(1500, func() { dma(0) })

	e.At(4000, func() { log("fault", "link x0.25"); link.SetRateScale(0.25) })
	e.At(6000, func() { log("fault", "hbm x0.5"); hbm.SetRateScale(0.5) })
	e.At(7000, func() { log("fault", "hbm x1"); hbm.SetRateScale(1) })
	e.At(9000, func() { log("fault", "link x1"); link.SetRateScale(1) })

	// B's Sleep is enqueued after A's admission to solo, while C still
	// waits in the same-instant queue, and wakes on exactly the
	// nanosecond A's transfer completes: the completion must run first.
	e.At(2500, func() {
		e.Go("A", func(p *Proc) {
			solo.Transfer(p, 1000, 0)
			log("A", "done solo=%d", solo.ActiveFlows())
		})
		e.Go("B", func(p *Proc) {
			p.Sleep(1000)
			log("B", "woke solo=%d", solo.ActiveFlows())
		})
		e.Go("C", func(p *Proc) { log("C", "ran solo=%d", solo.ActiveFlows()) })
	})
	e.At(Time(200*Microsecond), func() {
		e.Go("D", func(p *Proc) {
			solo.TransferAsync(500, 0, func() { log("D", "async done") })
			p.Sleep(2000)
			log("D", "woke solo=%d", solo.ActiveFlows())
		})
	})

	end := e.Run()
	for _, r := range []*Resource{hbm, alu, link, solo} {
		log(r.Name(), "total=%g busy=%d", r.TotalBytes(), r.BusyTime())
	}
	log("engine", "end=%d dispatched=%d", end, e.Stats().Dispatched)
	return lines
}

func TestGoldenEventOrder(t *testing.T) {
	lines := goldenScenario()
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	if got := h.Sum64(); got != goldenOrderDigest {
		t.Fatalf("golden event order digest = %#x, want %#x (%d lines, last %q)",
			got, goldenOrderDigest, len(lines), lines[len(lines)-1])
	}
}

// TestSleepSeesPendingCompletion: a TransferAsync admitted at an
// instant whose settle is still pending must not be skipped by a Sleep
// issued at that same instant that wakes after the completion.
func TestSleepSeesPendingCompletion(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dma", 1*gb, nil)
	var got []string
	e.Go("p", func(p *Proc) {
		r.TransferAsync(1000, 0, func() { got = append(got, fmt.Sprint("done@", e.Now())) })
		p.Sleep(5000)
		got = append(got, fmt.Sprint("woke@", p.Now()))
	})
	e.Run()
	if want := "[done@1000ns woke@5000ns]"; fmt.Sprint(got) != want {
		t.Fatalf("events %v, want %s", got, want)
	}
}

// TestSameInstantAdmitsArmOneTimer: 256 admissions at one instant
// water-fill once and leave exactly one live event for the resource,
// with no cancelled timers left behind in the instants.
func TestSameInstantAdmitsArmOneTimer(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "hbm", 1*gb, nil)
	const n = 256
	var done []Time
	e.At(10, func() {
		for i := 0; i < n; i++ {
			e.Go(fmt.Sprint("wg", i), func(p *Proc) {
				r.Transfer(p, 1e6, 0)
				done = append(done, p.Now())
			})
		}
	})
	probed := false
	e.At(11, func() {
		probed = true
		q := queuedEvents(e)
		if len(q) != 1 || q[0] != r.timer || e.pending != 1 || e.ncancelled != 0 {
			t.Errorf("after %d same-instant admits: %d events queued (pending %d), the resource timer first: %v, %d cancelled; want exactly the one timer",
				n, len(q), e.pending, len(q) > 0 && q[0] == r.timer, e.ncancelled)
		}
	})
	e.Run()
	if !probed || len(done) != n {
		t.Fatalf("probed=%v, %d/%d transfers done", probed, len(done), n)
	}
	want := Time(10 + n*Millisecond)
	for _, at := range done {
		if at != want {
			t.Fatalf("transfer done at %v, want %v", at, want)
		}
	}
}

// TestHostTransferAsyncBeforeRun: admissions and rate changes made from
// the host, with the engine stopped, schedule their completion at once.
func TestHostTransferAsyncBeforeRun(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link", 1*gb, nil)
	var a, b Time
	r.TransferAsync(0.25*gb, 0, func() { a = e.Now() })
	r.TransferAsync(0.5*gb, 0, func() { b = e.Now() })
	r.SetRateScale(0.5)
	if r.timer == nil {
		t.Fatal("no completion scheduled before Run")
	}
	e.Run()
	// Both share 0.25 GB/s until the small one ends at 1 s; the big one
	// then has 0.25 GB left at 0.5 GB/s.
	if a != Time(Second) || b != Time(1500*Millisecond) {
		t.Fatalf("done at %v and %v, want 1s and 1.5s", a, b)
	}
}

// TestResourceAtForeverDeadlocks: a flow whose completion saturates at
// Forever cannot be scheduled; the engine must report the blocked
// process as a deadlock instead of spinning at Forever.
//
//detlint:allow rawgo -- host-side harness: Run goes on its own goroutine so a spin fails the test instead of hanging it
func TestResourceAtForeverDeadlocks(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "trickle", 1, nil)
	e.Go("p", func(p *Proc) { r.Transfer(p, 1e30, 0) })
	res := make(chan any, 1)
	go func() {
		defer func() { res <- recover() }()
		e.Run()
	}()
	select {
	case v := <-res:
		if msg := fmt.Sprint(v); !strings.Contains(msg, "deadlock at forever") {
			t.Fatalf("Run ended with %q, want a deadlock at forever", msg)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("engine still spinning at Forever after 30s")
	}
}
