package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

const gb = 1e9

func TestResourceSingleTransfer(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link", 1*gb, nil)
	var done Time
	e.Go("t", func(p *Proc) {
		r.Transfer(p, 0.5*gb, 0)
		done = p.Now()
	})
	e.Run()
	want := Time(500 * Millisecond)
	if done != want {
		t.Errorf("transfer done at %v, want %v", done, want)
	}
	if r.TotalBytes() != 0.5*gb {
		t.Errorf("totalBytes = %g", r.TotalBytes())
	}
}

func TestResourceFairSharing(t *testing.T) {
	// Two equal transfers share the link: each takes twice as long.
	e := NewEngine()
	r := NewResource(e, "link", 1*gb, nil)
	var d1, d2 Time
	e.Go("a", func(p *Proc) { r.Transfer(p, 0.5*gb, 0); d1 = p.Now() })
	e.Go("b", func(p *Proc) { r.Transfer(p, 0.5*gb, 0); d2 = p.Now() })
	e.Run()
	want := Time(Second)
	if d1 != want || d2 != want {
		t.Errorf("done at %v/%v, want both %v", d1, d2, want)
	}
}

func TestResourceUnequalTransfersStaggered(t *testing.T) {
	// 1GB and 0.25GB on a 1GB/s link starting together: the small one
	// finishes at t=0.5s (shared 0.5GB/s); the big one then speeds up and
	// finishes at 0.5 + 0.75/1.0 = 1.25s.
	e := NewEngine()
	r := NewResource(e, "link", 1*gb, nil)
	var big, small Time
	e.Go("big", func(p *Proc) { r.Transfer(p, 1*gb, 0); big = p.Now() })
	e.Go("small", func(p *Proc) { r.Transfer(p, 0.25*gb, 0); small = p.Now() })
	e.Run()
	if got, want := small, Time(500*Millisecond); absT(got-want) > 10 {
		t.Errorf("small done at %v, want ~%v", got, want)
	}
	if got, want := big, Time(1250*Millisecond); absT(got-want) > 10 {
		t.Errorf("big done at %v, want ~%v", got, want)
	}
}

func TestResourcePerFlowCap(t *testing.T) {
	// A single flow capped at 0.1 GB/s on a 1 GB/s link.
	e := NewEngine()
	r := NewResource(e, "hbm", 1*gb, nil)
	var done Time
	e.Go("t", func(p *Proc) {
		r.Transfer(p, 0.1*gb, 0.1*gb)
		done = p.Now()
	})
	e.Run()
	if got, want := done, Time(Second); absT(got-want) > 10 {
		t.Errorf("capped transfer done at %v, want ~%v", got, want)
	}
}

func TestResourceCapSurplusRedistributed(t *testing.T) {
	// One capped flow (0.2 GB/s) + one uncapped on a 1 GB/s link: the
	// uncapped flow gets 0.8 GB/s.
	e := NewEngine()
	r := NewResource(e, "link", 1*gb, nil)
	var capped, free Time
	e.Go("capped", func(p *Proc) { r.Transfer(p, 0.2*gb, 0.2*gb); capped = p.Now() })
	e.Go("free", func(p *Proc) { r.Transfer(p, 0.8*gb, 0); free = p.Now() })
	e.Run()
	if got, want := capped, Time(Second); absT(got-want) > 10 {
		t.Errorf("capped done at %v, want ~%v", got, want)
	}
	if got, want := free, Time(Second); absT(got-want) > 10 {
		t.Errorf("free done at %v, want ~%v", got, want)
	}
}

func TestResourceEfficiencyCurve(t *testing.T) {
	// eff halves capacity when more than 1 flow is active.
	eff := func(n int) float64 {
		if n > 1 {
			return 0.5
		}
		return 1
	}
	e := NewEngine()
	r := NewResource(e, "hbm", 1*gb, eff)
	var d Time
	e.Go("a", func(p *Proc) { r.Transfer(p, 0.25*gb, 0); d = p.Now() })
	e.Go("b", func(p *Proc) { r.Transfer(p, 0.25*gb, 0) })
	e.Run()
	// Usable capacity 0.5 GB/s shared by 2 => 0.25 GB/s each => 1s.
	if got, want := d, Time(Second); absT(got-want) > 10 {
		t.Errorf("done at %v, want ~%v", got, want)
	}
}

func TestResourceSequentialBackToBack(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link", 1*gb, nil)
	var done Time
	e.Go("t", func(p *Proc) {
		for i := 0; i < 4; i++ {
			r.Transfer(p, 0.25*gb, 0)
		}
		done = p.Now()
	})
	e.Run()
	if got, want := done, Time(Second); absT(got-want) > 40 {
		t.Errorf("4 back-to-back quarters done at %v, want ~%v", got, want)
	}
}

func TestResourceAsyncTransfer(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "nic", 2*gb, nil)
	var done Time
	fired := 0
	r.TransferAsync(1*gb, 0, func() { done = e.Now(); fired++ })
	r.TransferAsync(0, 0, func() { fired++ }) // zero bytes completes immediately
	e.Run()
	if fired != 2 {
		t.Fatalf("completions = %d, want 2", fired)
	}
	if got, want := done, Time(500*Millisecond); absT(got-want) > 10 {
		t.Errorf("async done at %v, want ~%v", got, want)
	}
}

// groupScenario admits groups of identical uncapped transfers at
// staggered instants, beside a lone flow with a cap above its share, on
// a resource whose efficiency falls with the flow count, and scales the
// rate mid-flight. Each group is one TransferAsyncN call when grouped,
// else n TransferAsync calls. The log records every group's completion
// instant and, at each completion and at probes between them,
// ActiveFlows and TotalBytes.
func groupScenario(t *testing.T, grouped bool) []string {
	t.Helper()
	e := NewEngine()
	r := NewResource(e, "link", 1*gb, func(n int) float64 { return 1 / (1 + 0.07*float64(n-1)) })
	var log []string
	note := func(what string) {
		log = append(log, fmt.Sprintf("%s@%v active=%d total=%v", what, e.Now(), r.ActiveFlows(), r.TotalBytes()))
	}
	group := func(name string, at Time, bytes float64, n int) {
		e.At(at, func() {
			if grouped {
				r.TransferAsyncN(bytes, n, func() { note(name) })
				return
			}
			var first Time
			left := n
			for i := 0; i < n; i++ {
				r.TransferAsync(bytes, 0, func() {
					if left == n {
						first = e.Now()
					}
					if left--; left == 0 {
						if e.Now() != first {
							t.Errorf("%s: members completed at %v and %v", name, first, e.Now())
						}
						note(name)
					}
				})
			}
		})
	}
	group("a", 0, 3.3e4, 3)
	e.At(0, func() { r.TransferAsync(1.1e4, 10*gb, func() { note("lone") }) })
	// b's size is not whole: added five times to the running total it
	// rounds apart from one product.
	group("b", Time(47*Microsecond), 7700.1, 5)
	e.At(Time(83*Microsecond), func() { r.SetRateScale(0.6) })
	group("c", Time(121*Microsecond), 1.3e4, 2)
	group("d", Time(121*Microsecond), 2.9e3, 1)
	for at := Time(0); at < Time(500*Microsecond); at += Time(13 * Microsecond) {
		e.At(at, func() { note("probe") })
	}
	e.Run()
	return log
}

// TestTransferAsyncNMatchesSeparateFlows: a group admitted with
// TransferAsyncN completes at the instant its n separate transfers
// would, and ActiveFlows and TotalBytes read the same at every point,
// under staggered admissions, an efficiency curve and a mid-flight
// SetRateScale.
func TestTransferAsyncNMatchesSeparateFlows(t *testing.T) {
	want, got := groupScenario(t, false), groupScenario(t, true)
	if len(got) != len(want) {
		t.Fatalf("grouped log has %d entries, separate flows %d:\n%v\n%v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: grouped %q, separate flows %q", i, got[i], want[i])
		}
	}
	// Not vacuous: all four groups and the lone flow completed, with
	// groups in flight at some probes.
	done, busy := 0, false
	for _, l := range got {
		if !strings.HasPrefix(l, "probe") {
			done++
		} else if !strings.Contains(l, "active=0 ") {
			busy = true
		}
	}
	if done != 5 || !busy {
		t.Errorf("log %v: want 5 completions and a busy probe", got)
	}
}

// TestTransferAsyncNEmptyGroup: n < 1, like zero bytes, moves nothing
// and completes at the current instant.
func TestTransferAsyncNEmptyGroup(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link", 1*gb, nil)
	var at []Time
	e.At(Time(Microsecond), func() {
		r.TransferAsyncN(1e6, 0, func() { at = append(at, e.Now()) })
		r.TransferAsyncN(1e6, -2, func() { at = append(at, e.Now()) })
		r.TransferAsyncN(0, 4, func() { at = append(at, e.Now()) })
		if r.ActiveFlows() != 0 {
			t.Errorf("ActiveFlows = %d after empty groups, want 0", r.ActiveFlows())
		}
	})
	e.Run()
	if len(at) != 3 || at[0] != Time(Microsecond) || at[1] != at[0] || at[2] != at[0] {
		t.Errorf("empty groups completed at %v, want 3 at 1µs", at)
	}
	if r.TotalBytes() != 0 {
		t.Errorf("TotalBytes = %v, want 0", r.TotalBytes())
	}
}

// Property: for any set of transfers sharing a resource, the makespan is at
// least the serial lower bound (sum bytes / capacity) and at most the
// fully-serialized upper bound plus rounding.
func TestResourceMakespanBounds(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 64 {
			return true
		}
		e := NewEngine()
		r := NewResource(e, "link", 1*gb, nil)
		total := 0.0
		for _, s := range sizes {
			bytes := float64(s)*1e5 + 1 // up to ~6.5MB each
			total += bytes
			e.Go("t", func(p *Proc) { r.Transfer(p, bytes, 0) })
		}
		end := e.Run()
		lower := TransferTime(total, 1*gb)
		// Processor sharing completes all work exactly at the serial
		// bound when all flows start together.
		slack := Duration(len(sizes) + 2) // rounding per completion event
		return end >= Time(lower)-Time(slack) && end <= Time(lower)+Time(slack)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: transfers never complete early (bytes/capacity is a hard floor
// for any single flow, regardless of competing traffic).
func TestResourceNeverFasterThanCapacity(t *testing.T) {
	f := func(a, b uint16) bool {
		bytesA := float64(a)*1e5 + 1e5
		bytesB := float64(b)*1e5 + 1e5
		e := NewEngine()
		r := NewResource(e, "link", 1*gb, nil)
		var doneA Time
		e.Go("a", func(p *Proc) { r.Transfer(p, bytesA, 0); doneA = p.Now() })
		e.Go("b", func(p *Proc) { r.Transfer(p, bytesB, 0) })
		e.Run()
		return doneA >= Time(TransferTime(bytesA, 1*gb))-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func absT(d Time) Time {
	if d < 0 {
		return -d
	}
	return d
}
