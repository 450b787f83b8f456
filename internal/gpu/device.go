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
//
// A grid kernel's WG (LaunchGrid) has no process: P is nil, and its
// Read, Write, Gather, Compute and Busy calls record charges that the
// workgroup issues once the body returns. Its body may only charge and
// hand functional work to Then.
type WG struct {
	P      *sim.Proc
	Dev    *Device
	PhysID int // physical (persistent) workgroup index within the kernel
	Lanes  int // real workgroups this context represents (0 or 1 = one)

	grid *gridWG // the recording grid workgroup, or nil
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

// computeCap returns the lane-scaled per-flow ALU cap: a single real WG
// can draw at most one CU's worth of throughput.
func (w *WG) computeCap() float64 {
	return w.Dev.cfg.FlopsPerCU * float64(w.lanes())
}

// Read streams bytes from device memory.
func (w *WG) Read(bytes float64) {
	if w.grid != nil {
		w.grid.charge(chargeStream, bytes)
		return
	}
	w.Dev.hbm.Transfer(w.P, bytes, w.streamCap())
}

// Write streams bytes to device memory.
func (w *WG) Write(bytes float64) { w.Read(bytes) }

// Gather reads bytes with a random-access pattern; it burns
// bytes/GatherEfficiency of HBM capacity to deliver the payload and
// counts toward the device's contention knee.
func (w *WG) Gather(bytes float64) {
	burnt := bytes / w.Dev.cfg.GatherEfficiency
	if w.grid != nil {
		w.grid.charge(chargeGather, burnt)
		return
	}
	w.Dev.activeGathers += w.lanes()
	w.Dev.hbm.Transfer(w.P, burnt, w.streamCap())
	w.Dev.activeGathers -= w.lanes()
}

// Compute executes flops on the ALU pool.
func (w *WG) Compute(flops float64) {
	if w.grid != nil {
		w.grid.charge(chargeCompute, flops)
		return
	}
	w.Dev.alu.Transfer(w.P, flops, w.computeCap())
}

// Busy advances the WG by a fixed duration (book-keeping instructions,
// API call overhead).
func (w *WG) Busy(d sim.Duration) {
	if w.grid != nil {
		w.grid.charges = append(w.grid.charges, charge{kind: chargeBusy, d: d})
		return
	}
	w.P.Sleep(d)
}

// Then runs fn once every charge issued before it has completed, at
// that instant: at once on a process-backed WG, whose charges block,
// and on a grid WG from the completion of the charge before it. Kernel
// helpers hand their functional math to Then, so results land when the
// workgroup's memory traffic says they do.
func (w *WG) Then(fn func()) {
	if w.grid != nil {
		w.grid.charges = append(w.grid.charges, charge{kind: chargeThen, fn: fn})
		return
	}
	fn()
}

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
// for residency, as on hardware). Each workgroup runs as its own
// process, so a persistent kernel's body may block on flags and fences.
func (d *Device) Launch(p *sim.Proc, k Kernel) {
	perCU, lanes := d.occupancy(k.WGsPerCU, k.Lanes)
	d.dispatch(p, k.Name, k.PhysWGs, perCU, lanes)
	p.ForkJoin(k.PhysWGs, k.Name, func(proc *sim.Proc, i int) {
		d.slots.Acquire(proc, lanes)
		d.activeWGs += lanes
		k.Body(&WG{P: proc, Dev: d, PhysID: i, Lanes: lanes})
		d.activeWGs -= lanes
		d.slots.Release(lanes)
	})
}

// occupancy clamps a launch's per-CU residency to the device maximum
// (0 means the maximum) and its lane count to at least 1.
func (d *Device) occupancy(wgsPerCU, lanes int) (perCU, l int) {
	perCU = wgsPerCU
	if perCU <= 0 || perCU > d.cfg.MaxWGSlotsPerCU {
		perCU = d.cfg.MaxWGSlotsPerCU
	}
	return perCU, max(lanes, 1)
}

// dispatch checks that phys workgroups of lanes each fit the residency
// cap, counts the kernel and pays the launch overhead.
func (d *Device) dispatch(p *sim.Proc, name string, phys, perCU, lanes int) {
	if phys <= 0 {
		panic("gpu: kernel " + name + " with no workgroups")
	}
	if maxResident := d.cfg.CUs * perCU; phys*lanes > maxResident {
		panic(fmt.Sprintf("gpu: kernel %s requests %d WGs (x%d lanes), occupancy allows %d", name, phys, lanes, maxResident))
	}
	d.kernelsLaunched++
	p.Sleep(d.cfg.KernelLaunchOverhead)
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
//
// A grid kernel's workgroups never block on anything but their own
// charges, so they run as engine-callback chains, not processes (see
// gridWG), with the timing, event order and event count a process per
// workgroup would give.
func (d *Device) LaunchGridLanes(p *sim.Proc, name string, grid, wgsPerCU, lanes int, body func(w *WG, logical int)) {
	perCU, lanes := d.occupancy(wgsPerCU, lanes)
	phys := min(max(d.cfg.CUs*perCU/lanes, 1), grid)
	d.dispatch(p, name, phys, perCU, lanes)
	k := &gridKernel{body: body, items: grid, done: sim.NewWaitGroup(d.e)}
	k.done.Add(phys)
	wgs := make([]gridWG, phys)
	for i := range wgs {
		x := &wgs[i]
		x.k = k
		x.w = WG{Dev: d, PhysID: i, Lanes: lanes, grid: x}
		x.step = x.run
		x.charges = x.buf[:0]
		d.e.At(d.e.Now(), x.step)
	}
	k.done.Wait(p)
}

// gridKernel is the state a grid kernel's workgroups share: the body,
// the next logical item to hand out, and the join the launcher waits on.
type gridKernel struct {
	body        func(w *WG, logical int)
	next, items int
	done        *sim.WaitGroup
}

// gridWG is one physical workgroup of a grid kernel, driven by engine
// callbacks instead of a process. At each logical item it runs the body
// against its recording WG, then issues the recorded charges one at a
// time through Resource.TransferAsync and continues from each
// completion. Every step takes the event the process would have taken:
// its start is scheduled where spawn enqueued the process, a queued slot
// admission and a completion take the seq of the blocked process's wake,
// and zero-size charges are skipped inline, as a blocking Transfer
// returns at once.
type gridWG struct {
	k       *gridKernel
	w       WG
	step    func() // run, bound once: the start, admission and completion callback
	state   gridState
	charges []charge // the current item's, issued from pc on
	pc      int
	buf     [4]charge
}

// gridState is where a grid workgroup's next callback resumes.
type gridState uint8

const (
	gridStart     gridState = iota // not yet asked for slots
	gridQueued                     // queued for slots
	gridRunning                    // resident; a charge is in flight
	gridGathering                  // resident; a gather is in flight
)

// chargeKind is what a recorded charge draws on.
type chargeKind uint8

const (
	chargeStream  chargeKind = iota // HBM streaming read or write
	chargeGather                    // HBM random gather, counted toward the knee
	chargeCompute                   // ALU flops
	chargeBusy                      // fixed duration
	chargeThen                      // functional work (WG.Then)
)

// charge is one recorded cost, or a Then.
type charge struct {
	kind   chargeKind
	amount float64      // bytes or flops
	d      sim.Duration // chargeBusy
	fn     func()       // chargeThen
}

// charge records a transfer; a zero-size one is skipped, as the blocking
// Transfer returns at once without an event.
func (x *gridWG) charge(kind chargeKind, amount float64) {
	if amount <= 0 {
		return
	}
	x.charges = append(x.charges, charge{kind: kind, amount: amount})
}

// run is the workgroup's one callback. It takes slots on its first call
// and drops the gather count when a gather completes, then issues
// charges until one is in flight, starting the next logical item each
// time the current one's charges are done, and retires once the grid
// has no items left.
func (x *gridWG) run() {
	d, k, lanes := x.w.Dev, x.k, x.w.Lanes
	switch x.state {
	case gridStart:
		x.state = gridQueued
		if !d.slots.AcquireFunc(lanes, x.step) {
			return
		}
		fallthrough
	case gridQueued:
		x.state = gridRunning
		d.activeWGs += lanes
	case gridGathering:
		x.state = gridRunning
		d.activeGathers -= lanes
	}
	for {
		for x.pc < len(x.charges) {
			c := &x.charges[x.pc]
			x.pc++
			switch c.kind {
			case chargeStream:
				d.hbm.TransferAsync(c.amount, x.w.streamCap(), x.step)
			case chargeGather:
				d.activeGathers += lanes
				x.state = gridGathering
				d.hbm.TransferAsync(c.amount, x.w.streamCap(), x.step)
			case chargeCompute:
				d.alu.TransferAsync(c.amount, x.w.computeCap(), x.step)
			case chargeBusy:
				if d.e.Delay(c.d, x.step) {
					continue
				}
			case chargeThen:
				c.fn()
				continue
			}
			return
		}
		clear(x.charges) // drop the finished item's Then closures
		x.charges, x.pc = x.charges[:0], 0
		if k.next >= k.items {
			break
		}
		k.next++
		k.body(&x.w, k.next-1)
	}
	d.activeWGs -= lanes
	d.slots.Release(lanes)
	k.done.Done()
}
