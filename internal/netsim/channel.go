package netsim

import (
	"fmt"

	"fusedcc/internal/sim"
)

// Channel is reliable in-order delivery from one node to another — the
// analogue of a connected RDMA queue pair. Messages posted to a channel
// are transferred one at a time in post order; completion callbacks fire
// at delivery time on the receiver's clock. Propagation latency is
// pipelined: the next message may start its serialization while an
// earlier one is still in flight, but no message is delivered before
// one posted earlier, even when the path's latency drops in between.
//
// The drain that serializes the queue is a chain of engine callbacks,
// not a process: each step takes the (time, seq) a draining process's
// step would take.
type Channel struct {
	e        *sim.Engine
	net      Network
	src, dst int
	overhead sim.Duration // per-message posting/doorbell cost

	// The drain's callbacks, bound once.
	nextFn, serializeFn, crossFn, deliverFn func()

	queue    []message // posted, not yet serializing, from head on
	head     int
	busy     bool // a drain is running
	inflight int
	idle     *sim.Cond

	// The message serializing: its path, the next link to cross and the
	// propagation latency after the last.
	cur   message
	links []*sim.Resource
	hop   int
	lat   sim.Duration

	// flying holds the delivery callbacks of serialized messages not yet
	// delivered, in delivery order; lastDelivery is when the latest of
	// them lands.
	flying       []func()
	lastDelivery sim.Time

	posted    int
	delivered int
}

type message struct {
	bytes       float64
	onDelivered func()
}

// NewChannel opens an ordered channel from src to dst over net, on
// engine e. overhead is the per-message posting cost charged on the
// channel (WQE build + doorbell), not on the posting workgroup.
func NewChannel(e *sim.Engine, net Network, src, dst int, overhead sim.Duration) *Channel {
	if src == dst {
		panic(fmt.Sprintf("netsim: channel to self (node %d)", src))
	}
	c := &Channel{e: e, net: net, src: src, dst: dst, overhead: overhead, idle: sim.NewCond(e)}
	c.nextFn, c.serializeFn, c.crossFn, c.deliverFn = c.next, c.serialize, c.cross, c.deliver
	return c
}

// Posted reports how many messages have been posted.
func (c *Channel) Posted() int { return c.posted }

// Delivered reports how many messages have been delivered.
func (c *Channel) Delivered() int { return c.delivered }

// Post enqueues a message of the given size. onDelivered (optional) runs
// when the last byte arrives at dst. Post never blocks the caller — this
// is the non-blocking put primitive the fused kernels rely on. An idle
// channel starts its drain at the current instant.
func (c *Channel) Post(bytes float64, onDelivered func()) {
	c.posted++
	c.queue = append(c.queue, message{bytes: bytes, onDelivered: onDelivered})
	if !c.busy {
		c.busy = true
		c.e.At(c.e.Now(), c.nextFn)
	}
}

// Quiet blocks p until every message posted so far has been delivered.
func (c *Channel) Quiet(p *sim.Proc) {
	c.idle.Wait(p, func() bool {
		return c.head == len(c.queue) && c.inflight == 0
	})
}

// next starts serializing the queue's head message after the posting
// overhead, or ends the drain when the queue is empty.
func (c *Channel) next() {
	if c.head == len(c.queue) {
		c.queue, c.head = c.queue[:0], 0
		c.busy = false
		c.idle.Broadcast()
		return
	}
	c.cur = c.queue[c.head]
	c.queue[c.head] = message{}
	c.head++
	c.inflight++
	c.e.After(c.overhead, c.serializeFn)
}

// serialize routes the current message, reading the path's latency now,
// and starts it across the first link.
func (c *Channel) serialize() {
	c.links, c.lat = c.net.Path(c.src, c.dst)
	c.hop = 0
	c.cross()
}

// cross puts the current message through its path's links one at a time
// (a zero-size message crosses at once, as a blocking transfer would),
// then schedules its delivery after the propagation latency — no
// earlier than the previous message's — and drains on.
func (c *Channel) cross() {
	for c.hop < len(c.links) {
		l := c.links[c.hop]
		c.hop++
		if c.cur.bytes > 0 {
			l.TransferAsync(c.cur.bytes, 0, c.crossFn)
			return
		}
	}
	c.lastDelivery = max(c.e.Now().Add(c.lat), c.lastDelivery)
	c.flying = append(c.flying, c.cur.onDelivered)
	c.cur = message{}
	c.e.At(c.lastDelivery, c.deliverFn)
	c.next()
}

// deliver lands the oldest message in flight.
func (c *Channel) deliver() {
	done := c.flying[0]
	c.flying[0] = nil
	c.flying = c.flying[1:]
	c.delivered++
	c.inflight--
	if done != nil {
		done()
	}
	c.idle.Broadcast()
}
