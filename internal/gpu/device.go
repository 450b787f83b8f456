package gpu

import (
	"fmt"

	"fusedcc/internal/sim"
)

// Device is one simulated GPU.
type Device struct {
	e   *sim.Engine
	id  int
	cfg Config

	hbm   *sim.Resource  // memory interface, bytes/sec
	alu   *sim.Resource  // ALU pool, flops/sec
	slots *sim.Semaphore // resident-WG slots (CUs x MaxWGSlotsPerCU)

	kernelsLaunched int
	activeWGs       int
	activeGathers   int // in-flight random-gather transfers

	// Standing per-kind command queues (see Stream) and the compute/comm
	// overlap accounting fed by their busy transitions.
	streams      [numStreamKinds]*Stream
	streamBusy   [numStreamKinds]bool
	overlapSince sim.Time
	overlapTotal sim.Duration
}

// NewDevice creates a device with the given id bound to engine e.
func NewDevice(e *sim.Engine, id int, cfg Config) *Device {
	cfg.validate()
	d := &Device{e: e, id: id, cfg: cfg}
	// The contention knee applies to concurrent random-gather traffic
	// (DRAM row-buffer thrash); streaming reads and writes coexist at
	// full efficiency. The curve therefore keys off the device's
	// in-flight gather count, not the total flow count.
	var eff func(int) float64
	if curve := cfg.hbmEfficiency(); curve != nil {
		eff = func(int) float64 { return curve(d.activeGathers) }
	}
	d.hbm = sim.NewResource(e, fmt.Sprintf("gpu%d.hbm", id), cfg.HBMBandwidth, eff)
	d.alu = sim.NewResource(e, fmt.Sprintf("gpu%d.alu", id), float64(cfg.CUs)*cfg.FlopsPerCU, nil)
	d.slots = sim.NewSemaphore(e, cfg.MaxWGSlots())
	return d
}

// ID returns the device index.
func (d *Device) ID() int { return d.id }

// Engine returns the owning simulation engine.
func (d *Device) Engine() *sim.Engine { return d.e }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// HBM exposes the memory-bandwidth resource (for DMA/blit engines that
// read or write device memory from outside a kernel).
func (d *Device) HBM() *sim.Resource { return d.hbm }

// ALU exposes the compute-throughput resource (for health monitors that
// sample observed service rates).
func (d *Device) ALU() *sim.Resource { return d.alu }

// SetServiceScale degrades the device's service rates by factor f >= 1:
// every kernel's compute and memory phases take ~f times longer — the
// straggler-injection hook. f == 1 restores nominal behavior exactly.
func (d *Device) SetServiceScale(f float64) {
	if f < 1 {
		panic("gpu: service scale must be >= 1 (stragglers only slow devices)")
	}
	d.alu.SetRateScale(1 / f)
	d.hbm.SetRateScale(1 / f)
}

// ServiceScale reports the device's current straggler factor (1 when
// nominal).
func (d *Device) ServiceScale() float64 { return 1 / d.alu.RateScale() }

// KernelsLaunched reports how many kernels were dispatched on the device.
func (d *Device) KernelsLaunched() int { return d.kernelsLaunched }

// ActiveWGs reports the number of workgroups currently resident.
func (d *Device) ActiveWGs() int { return d.activeWGs }

// WG is the execution context handed to kernel bodies — the simulation
// analogue of a workgroup. Its methods advance simulated time according
// to the device cost model and, in functional mode, give access to
// device buffers.
//
// Lanes supports simulation coarsening: a WG with Lanes == n stands for
// n real workgroups executing the same instruction stream in parallel.
// Per-flow bandwidth caps and contention accounting scale by n, so a
// lane-coarsened kernel has the same timing as the fully expanded one
// (the cost model is linear) at 1/n the event count.
type WG struct {
	P      *sim.Proc
	Dev    *Device
	PhysID int // physical (persistent) workgroup index within the kernel
	Lanes  int // real workgroups this context represents (0 or 1 = one)
}

// lanes normalizes the Lanes field.
func (w *WG) lanes() int {
	if w.Lanes < 1 {
		return 1
	}
	return w.Lanes
}

// streamCap returns the lane-scaled per-flow memory bandwidth cap.
func (w *WG) streamCap() float64 {
	return w.Dev.cfg.PerWGStreamBandwidth * float64(w.lanes())
}

// Read streams bytes from device memory.
func (w *WG) Read(bytes float64) {
	w.Dev.hbm.Transfer(w.P, bytes, w.streamCap())
}

// Write streams bytes to device memory.
func (w *WG) Write(bytes float64) {
	w.Dev.hbm.Transfer(w.P, bytes, w.streamCap())
}

// Gather reads bytes with a random-access pattern; it burns
// bytes/GatherEfficiency of HBM capacity to deliver the payload and
// counts toward the device's contention knee.
func (w *WG) Gather(bytes float64) {
	w.Dev.activeGathers += w.lanes()
	w.Dev.hbm.Transfer(w.P, bytes/w.Dev.cfg.GatherEfficiency, w.streamCap())
	w.Dev.activeGathers -= w.lanes()
}

// Compute executes flops on the ALU pool. A single real WG can draw at
// most one CU's worth of throughput.
func (w *WG) Compute(flops float64) {
	w.Dev.alu.Transfer(w.P, flops, w.Dev.cfg.FlopsPerCU*float64(w.lanes()))
}

// Busy advances the WG by a fixed duration (book-keeping instructions,
// API call overhead).
func (w *WG) Busy(d sim.Duration) { w.P.Sleep(d) }

// Kernel describes a dispatch.
type Kernel struct {
	// Name for diagnostics and traces.
	Name string
	// PhysWGs is the number of physical (resident) workgroups to run.
	// For ordinary kernels this is min(grid, available slots); for
	// persistent kernels it is the fixed, input-independent grid size.
	PhysWGs int
	// WGsPerCU caps residency per CU for this kernel (register
	// pressure). 0 means the device maximum.
	WGsPerCU int
	// Lanes coarsens the simulation: each simulated workgroup stands
	// for Lanes real resident workgroups (see WG.Lanes). 0 means 1.
	Lanes int
	// Body runs once per physical workgroup. Persistent kernels loop
	// over logical work items inside Body.
	Body func(wg *WG)
}

// Launch dispatches k and blocks the calling process until every
// workgroup finishes. Launch pays the kernel-launch overhead, then admits
// workgroups as slots free up (so two kernels on the same device contend
// for residency, as on hardware).
func (d *Device) Launch(p *sim.Proc, k Kernel) {
	if k.PhysWGs <= 0 {
		panic("gpu: kernel " + k.Name + " with no workgroups")
	}
	perCU := k.WGsPerCU
	if perCU <= 0 || perCU > d.cfg.MaxWGSlotsPerCU {
		perCU = d.cfg.MaxWGSlotsPerCU
	}
	lanes := k.Lanes
	if lanes < 1 {
		lanes = 1
	}
	maxResident := d.cfg.CUs * perCU
	if k.PhysWGs*lanes > maxResident {
		panic(fmt.Sprintf("gpu: kernel %s requests %d WGs (x%d lanes), occupancy allows %d", k.Name, k.PhysWGs, lanes, maxResident))
	}
	d.kernelsLaunched++
	p.Sleep(d.cfg.KernelLaunchOverhead)

	p.ForkJoin(k.PhysWGs, k.Name, func(proc *sim.Proc, i int) {
		d.slots.Acquire(proc, lanes)
		d.activeWGs += lanes
		k.Body(&WG{P: proc, Dev: d, PhysID: i, Lanes: lanes})
		d.activeWGs -= lanes
		d.slots.Release(lanes)
	})
}

// LaunchGrid runs a conventional (non-persistent) kernel with grid
// logical workgroups multiplexed over the resident set, mirroring the
// hardware workgroup scheduler: each slot picks up the next logical WG
// when it retires its current one.
func (d *Device) LaunchGrid(p *sim.Proc, name string, grid, wgsPerCU int, body func(w *WG, logical int)) {
	d.LaunchGridLanes(p, name, grid, wgsPerCU, 1, body)
}

// LaunchGridLanes is LaunchGrid with lane coarsening: each of the grid
// logical items stands for lanes real workgroups running in parallel
// (the item's cost calls are lane-scaled through WG.Lanes).
func (d *Device) LaunchGridLanes(p *sim.Proc, name string, grid, wgsPerCU, lanes int, body func(w *WG, logical int)) {
	perCU := wgsPerCU
	if perCU <= 0 || perCU > d.cfg.MaxWGSlotsPerCU {
		perCU = d.cfg.MaxWGSlotsPerCU
	}
	if lanes < 1 {
		lanes = 1
	}
	phys := d.cfg.CUs * perCU / lanes
	if phys < 1 {
		phys = 1
	}
	if grid < phys {
		phys = grid
	}
	next := 0
	d.Launch(p, Kernel{
		Name:     name,
		PhysWGs:  phys,
		WGsPerCU: perCU,
		Lanes:    lanes,
		Body: func(w *WG) {
			for next < grid {
				logical := next
				next++
				body(w, logical)
			}
		},
	})
}
