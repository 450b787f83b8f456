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
// a HIP/CUDA stream. Work items on one stream run sequentially; separate
// streams run concurrently and contend for device resources (WG slots,
// HBM, links). Backed by a sim.Server, a stream records its busy time,
// which the graph executor turns into per-stream occupancy statistics.
type Stream struct {
	name string
	srv  *sim.Server
}

// Stream returns the device's standing stream of the given kind,
// creating it on first use. Per-kind streams participate in the device's
// compute/comm overlap accounting.
func (d *Device) Stream(kind StreamKind) *Stream {
	if kind < 0 || kind >= numStreamKinds {
		panic(fmt.Sprintf("gpu: invalid stream kind %d", int(kind)))
	}
	if d.streams[kind] == nil {
		s := &Stream{name: kind.String(), srv: sim.NewServer(d.e, fmt.Sprintf("gpu%d.%s", d.id, kind))}
		s.srv.OnBusy(func(busy bool) { d.streamTransition(kind, busy) })
		d.streams[kind] = s
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

// Name returns the stream's diagnostic name.
func (s *Stream) Name() string { return s.name }

// BusyTime reports the cumulative time the stream held work.
func (s *Stream) BusyTime() sim.Duration { return s.srv.BusyTime() }

// QueueWait reports the cumulative time admitted items spent queued on
// the stream — the per-device contention signal of a loaded run.
func (s *Stream) QueueWait() sim.Duration { return s.srv.TotalWait() }

// Acquire blocks p until the stream is free, then holds it. Paired with
// Release, this is how the graph scheduler serializes whole nodes on a
// stream while the node's own kernels run on their rank processes.
func (s *Stream) Acquire(p *sim.Proc) { s.srv.Acquire(p) }

// Release frees the stream for the next queued item.
func (s *Stream) Release() { s.srv.Release() }
