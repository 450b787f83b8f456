package gpu

import (
	"fmt"

	"fusedcc/internal/sim"
)

// StreamKind names a device's standing command queues. The stream-aware
// graph scheduler maps node kinds onto them: kernels (conventional,
// persistent, or fused) issue on the compute stream, host-launched
// library collectives on the comm stream — the two-queue model
// production frameworks use to overlap communication with computation.
type StreamKind int

const (
	// StreamCompute carries kernel dispatches.
	StreamCompute StreamKind = iota
	// StreamComm carries library-collective launches and DMA batches.
	StreamComm
	numStreamKinds
)

func (k StreamKind) String() string {
	if k == StreamComm {
		return "comm"
	}
	return "compute"
}

// Stream is an in-order host command queue for a device, the analogue of
// a HIP/CUDA stream. Work items on one stream run sequentially, admitted
// one at a time in arrival order; separate streams run concurrently and
// contend for device resources (WG slots, HBM, links). A stream records
// its busy time and queue wait, which the graph executor turns into
// per-stream occupancy statistics, and reports its busy/idle edges to
// the device's compute/comm overlap accounting.
type Stream struct {
	d    *Device
	kind StreamKind
	sem  *sim.Semaphore // one permit: the hold

	held      bool
	busySince sim.Time
	busyTotal sim.Duration
	// queueWait is how long admitted items sat queued behind earlier
	// ones: where queueing builds under load.
	queueWait sim.Duration
}

// Stream returns the device's standing stream of the given kind,
// creating it on first use.
func (d *Device) Stream(kind StreamKind) *Stream {
	if kind < 0 || kind >= numStreamKinds {
		panic(fmt.Sprintf("gpu: invalid stream kind %d", int(kind)))
	}
	if d.streams[kind] == nil {
		d.streams[kind] = &Stream{d: d, kind: kind, sem: sim.NewSemaphore(d.e, 1)}
	}
	return d.streams[kind]
}

// streamTransition maintains the device's both-streams-busy accumulator
// across per-kind stream busy/idle edges.
func (d *Device) streamTransition(kind StreamKind, busy bool) {
	wasBoth := d.bothBusy()
	d.streamBusy[kind] = busy
	isBoth := d.bothBusy()
	switch {
	case !wasBoth && isBoth:
		d.overlapSince = d.e.Now()
	case wasBoth && !isBoth:
		d.overlapTotal += d.e.Now().Sub(d.overlapSince)
	}
}

func (d *Device) bothBusy() bool {
	return d.streamBusy[StreamCompute] && d.streamBusy[StreamComm]
}

// StreamBusy reports the cumulative busy time of the device's standing
// stream of the given kind (zero if it was never used).
func (d *Device) StreamBusy(kind StreamKind) sim.Duration {
	if d.streams[kind] == nil {
		return 0
	}
	return d.streams[kind].BusyTime()
}

// StreamOverlap reports the cumulative time the device's compute and
// comm streams were busy simultaneously — the overlap the pipelined
// schedule exists to create.
func (d *Device) StreamOverlap() sim.Duration {
	if d.bothBusy() {
		return d.overlapTotal + d.e.Now().Sub(d.overlapSince)
	}
	return d.overlapTotal
}

// BusyTime reports the cumulative time the stream held work, including
// the in-progress hold.
func (s *Stream) BusyTime() sim.Duration {
	if s.held {
		return s.busyTotal + s.d.e.Now().Sub(s.busySince)
	}
	return s.busyTotal
}

// QueueWait reports the cumulative time admitted items spent queued on
// the stream — the per-device contention signal of a loaded run.
func (s *Stream) QueueWait() sim.Duration { return s.queueWait }

// Acquire blocks p until the stream is free, then holds it, in FIFO
// order behind earlier acquirers. Paired with Release, this is how the
// graph scheduler serializes whole nodes on a stream while the node's
// own kernels run on their rank processes.
func (s *Stream) Acquire(p *sim.Proc) {
	enqueued := s.d.e.Now()
	s.sem.Acquire(p, 1)
	now := s.d.e.Now()
	s.queueWait += now.Sub(enqueued)
	s.held = true
	s.busySince = now
	s.d.streamTransition(s.kind, true)
}

// Release frees the stream for the next queued item.
func (s *Stream) Release() {
	if !s.held {
		panic(fmt.Sprintf("gpu: release of idle stream gpu%d.%s", s.d.id, s.kind))
	}
	s.busyTotal += s.d.e.Now().Sub(s.busySince)
	s.held = false
	s.d.streamTransition(s.kind, false)
	s.sem.Release(1)
}
