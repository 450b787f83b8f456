package main

import (
	"container/heap"
	"sort"
	"time"
)

// refYardstick is the yardstick's time on the reference host (2 vCPUs
// of an Intel Xeon, Go 1.24) in a quiet spell. Every set-up and pass time is scaled
// by refYardstick over the yardstick time around its pass, so setup_s
// and wall_s read in reference-host seconds.
const refYardstick = 0.5

// yardstickEvents sizes the yardstick's fixed amount of work. On a
// shared host a yardstick time carries sub-second noise of its own, so
// the yardsticks take about a fifth of a run; at half this size they
// added about as much noise as they cancelled.
const yardstickEvents = 800000

// yardstick times a fixed amount of standard-library work shaped like
// the simulator's inner loop: a binary heap of pointer events, hand-offs
// between two goroutines over channels, short-lived allocations and
// small sorts. It runs no fusedcc code, so no change to the repository
// moves it; what moves it is the host: other tenants, clock frequency,
// cache pressure. Timed between passes, it tracks the host's speed,
// which drifts by tens of percent over minutes on a shared machine.
func yardstick() time.Duration {
	start := hostNow()
	ping, pong := make(chan int64, 1), make(chan int64, 1)
	//detlint:allow rawgo -- host-side partner goroutine; it touches no simulation state and exits before yardstick returns
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	var h yardHeap
	x := uint64(88172645463325252) // xorshift state
	for i := int64(0); i < yardstickEvents; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		heap.Push(&h, &yardEvent{at: int64(x % 1e6), seq: i, payload: make([]byte, 64+x%128)})
		if h.Len() > 256 {
			ping <- heap.Pop(&h).(*yardEvent).at
			<-pong
		}
		if i%4096 == 0 {
			fs := make([]float64, 256)
			for j := range fs {
				fs[j] = float64((x >> (j % 60)) & 1023)
			}
			sort.Float64s(fs)
		}
	}
	close(ping)
	for range pong {
	}
	return hostNow().Sub(start)
}

type yardEvent struct {
	at, seq int64
	payload []byte
}

type yardHeap []*yardEvent

func (h yardHeap) Len() int { return len(h) }
func (h yardHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h yardHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *yardHeap) Push(x any)   { *h = append(*h, x.(*yardEvent)) }
func (h *yardHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}
