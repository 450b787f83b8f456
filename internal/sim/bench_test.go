package sim

import (
	"fmt"
	"testing"
)

// BenchmarkSleepSingleProc measures the sleep→wake round trip of one
// process — the engine's hottest path (kernel bodies are long runs of
// Busy/Sleep calls). One op is one Sleep.
func BenchmarkSleepSingleProc(b *testing.B) {
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkSleepManyProcs measures interleaved sleeps across 8 processes
// with overlapping wake times, forcing the park/resume protocol (no
// process can take a direct-handoff shortcut past the others).
func BenchmarkSleepManyProcs(b *testing.B) {
	const procs = 8
	e := NewEngine()
	for i := 0; i < procs; i++ {
		d := Duration(i + 1) // coprime-ish periods keep wakes interleaved
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := 0; k < b.N; k++ {
				p.Sleep(d)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkFlagPingPong measures condition signalling: two processes
// alternating on a Flag, the Broadcast/Wait path semaphores and streams
// are built on. One op is one handoff.
func BenchmarkFlagPingPong(b *testing.B) {
	e := NewEngine()
	f := NewFlag(e)
	e.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			f.WaitEQ(p, int64(2*i))
			f.Set(int64(2*i + 1))
		}
	})
	e.Go("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			f.WaitEQ(p, int64(2*i+1))
			f.Set(int64(2*i + 2))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkCallbacksSameInstant measures pure callback dispatch at a
// shared instant — the Broadcast/scheduler fan-out shape.
func BenchmarkCallbacksSameInstant(b *testing.B) {
	e := NewEngine()
	var fire func(i int)
	fire = func(i int) {
		if i < b.N {
			e.At(e.Now(), func() { fire(i + 1) })
		}
	}
	e.At(0, func() { fire(0) })
	b.ResetTimer()
	e.Run()
}

// BenchmarkResourceFlows measures the bandwidth-server path: four
// processes whose equal transfers complete together, each then admitting
// its next one, so every instant holds four triggers and one settle. One
// op is one complete transfer.
func BenchmarkResourceFlows(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "hbm", 1e12, nil)
	const procs = 4
	per := b.N/procs + 1
	for i := 0; i < procs; i++ {
		e.Go(fmt.Sprintf("flow%d", i), func(p *Proc) {
			for k := 0; k < per; k++ {
				r.Transfer(p, 4096, 0)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkResourceSameInstantAdmits measures a kernel-launch wave: n
// flows admitted at one instant, as n workgroups start their tiles. Caps
// sit below the fair share, so every settle runs the general (sorting)
// water-fill. The flows finish at two instants, and the last completion
// admits the next wave. One op is one wave.
func BenchmarkResourceSameInstantAdmits(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := NewEngine()
			r := NewResource(e, "hbm", 1e12, nil)
			share := 1e12 / float64(n)
			waves := 0
			var wave func()
			wave = func() {
				if waves == b.N {
					return
				}
				waves++
				left := n
				for i := 0; i < n; i++ {
					r.TransferAsync(4096, share/float64(2+i%2), func() {
						if left--; left == 0 {
							wave()
						}
					})
				}
			}
			e.At(0, wave)
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}

// BenchmarkSpawnExit measures proc creation and teardown: a wave of 256
// processes that each sleep once and exit. The shared wake instant keeps
// every one off the direct-handoff path, so each proc costs one spawn,
// one park/resume and one exit. One op is one wave.
func BenchmarkSpawnExit(b *testing.B) {
	const procs = 256
	e := NewEngine()
	body := func(p *Proc) { p.Sleep(1) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < procs; k++ {
			e.Go("wave", body)
		}
		e.Run()
	}
}
