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

// WG is a workgroup: the execution context handed to kernel bodies,
// the simulation analogue of a hardware workgroup. A body does not run
// its work; it records it. Read, Write, Gather, Compute and Busy record
// charges against the device cost model; Then records functional work
// and After the issue of asynchronous work; WaitGE, WaitEQ and Add
// record flag waits and flag updates. The workgroup issues the recorded
// charges one at a time once the body returns, as a small record driven
// by engine callbacks (see run), with the timing, event order and event
// count a process blocking on each charge in turn would give.
//
// Lanes supports simulation coarsening: a WG with Lanes == n stands for
// n real workgroups executing the same instruction stream in parallel.
// Per-flow bandwidth caps and contention accounting scale by n, so a
// lane-coarsened kernel has the same timing as the fully expanded one
// (the cost model is linear) at 1/n the event count.
type WG struct {
	Dev    *Device
	PhysID int // physical (persistent) workgroup index within the kernel
	Lanes  int // real workgroups this context represents (>= 1)

	k       *launch
	step    func() bool // a persistent kernel's step function (Kernel.Body)
	resume  func()      // run, bound once: the start, admission, completion and wake callback
	state   wgState
	charges []charge // the current step's, issued from pc on
	pc      int
	buf     [gridCharges]charge
}

// streamCap returns the lane-scaled per-flow memory bandwidth cap.
func (w *WG) streamCap() float64 {
	return w.Dev.cfg.PerWGStreamBandwidth * float64(w.Lanes)
}

// computeCap returns the lane-scaled per-flow ALU cap: a single real WG
// can draw at most one CU's worth of throughput.
func (w *WG) computeCap() float64 {
	return w.Dev.cfg.FlopsPerCU * float64(w.Lanes)
}

// Now returns the current virtual time: in Then, or at a step start, the
// instant the workgroup's earlier charges completed.
func (w *WG) Now() sim.Time { return w.Dev.e.Now() }

// Read streams bytes from device memory.
func (w *WG) Read(bytes float64) { w.charge(chargeStream, bytes) }

// Write streams bytes to device memory.
func (w *WG) Write(bytes float64) { w.charge(chargeStream, bytes) }

// Gather reads bytes with a random-access pattern; it burns
// bytes/GatherEfficiency of HBM capacity to deliver the payload and
// counts toward the device's contention knee.
func (w *WG) Gather(bytes float64) {
	w.charge(chargeGather, bytes/w.Dev.cfg.GatherEfficiency)
}

// Compute executes flops on the ALU pool.
func (w *WG) Compute(flops float64) { w.charge(chargeCompute, flops) }

// Busy advances the WG by a fixed duration (book-keeping instructions,
// API call overhead).
func (w *WG) Busy(d sim.Duration) {
	w.charges = append(w.charges, charge{kind: chargeBusy, amount: float64(d)})
}

// Then runs fn once every charge recorded before it has completed, at
// that instant. Kernel helpers hand their functional math to Then, and
// kernels read state other workgroups write in it, so results land and
// reads happen when the workgroup's memory traffic says they do.
func (w *WG) Then(fn func()) {
	w.charges = append(w.charges, charge{kind: chargeThen, fn: fn})
}

// After schedules fn d after the workgroup's earlier charges complete,
// without blocking the workgroup: the issue of an asynchronous operation
// (a store that lands later) at the instant the workgroup reaches it.
func (w *WG) After(d sim.Duration, fn func()) {
	w.charges = append(w.charges, charge{kind: chargeAfter, amount: float64(d), fn: fn})
}

// WaitGE blocks the workgroup, once its earlier charges complete, until
// f's value reaches v.
func (w *WG) WaitGE(f *sim.Flag, v int64) {
	w.charges = append(w.charges, charge{kind: chargeWaitGE, amount: float64(v), flag: f})
}

// WaitEQ blocks the workgroup, once its earlier charges complete, until
// f's value equals v.
func (w *WG) WaitEQ(f *sim.Flag, v int64) {
	w.charges = append(w.charges, charge{kind: chargeWaitEQ, amount: float64(v), flag: f})
}

// Add adds delta to f, and wakes its waiters, once the workgroup's
// earlier charges complete.
func (w *WG) Add(f *sim.Flag, delta int64) {
	w.charges = append(w.charges, charge{kind: chargeAdd, amount: float64(delta), flag: f})
}

// Kernel describes a persistent kernel: a fixed set of physical
// workgroups, each looping over its share of the logical work and
// blocking on flags and fences between steps.
type Kernel struct {
	// Name for diagnostics and traces.
	Name string
	// PhysWGs is the number of physical (resident) workgroups to run:
	// the fixed, input-independent grid size.
	PhysWGs int
	// WGsPerCU caps residency per CU for this kernel (register
	// pressure). 0 means the device maximum.
	WGsPerCU int
	// Lanes coarsens the simulation: each simulated workgroup stands
	// for Lanes real resident workgroups (see WG.Lanes). 0 means 1.
	Lanes int
	// Body starts one physical workgroup once it is resident: it
	// records the workgroup's first step on wg and returns the step
	// function that records each later one (typically one logical work
	// item per step), or nil when there is none. The workgroup issues a
	// step's charges in order and calls step once they have completed;
	// step reports false, recording nothing, when no step is left, and
	// the workgroup retires. Code that reads state other workgroups
	// write runs at a step start or in wg.Then, so it runs at the
	// instant a workgroup blocking on each charge would run it.
	Body func(wg *WG) (step func() bool)
}

// Launch dispatches k and blocks the calling process until every
// workgroup finishes. Launch pays the kernel-launch overhead, then admits
// workgroups as slots free up (so two kernels on the same device contend
// for residency, as on hardware). The workgroups run as engine-callback
// chains (see WG), so a persistent kernel spawns no process.
func (d *Device) Launch(p *sim.Proc, k Kernel) {
	perCU, lanes := d.occupancy(k.WGsPerCU, k.Lanes)
	d.dispatch(p, k.Name, k.PhysWGs, perCU, lanes)
	d.run(p, &launch{start: k.Body}, k.PhysWGs, lanes, persistentCharges)
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
// (the item's cost calls are lane-scaled through WG.Lanes). Each
// resident workgroup records and issues one item per step.
func (d *Device) LaunchGridLanes(p *sim.Proc, name string, grid, wgsPerCU, lanes int, body func(w *WG, logical int)) {
	perCU, lanes := d.occupancy(wgsPerCU, lanes)
	phys := min(max(d.cfg.CUs*perCU/lanes, 1), grid)
	d.dispatch(p, name, phys, perCU, lanes)
	d.run(p, &launch{body: body, items: grid}, phys, lanes, gridCharges)
}

// Charge-buffer capacities per workgroup: a grid item records at most a
// read, a compute, a write and a Then, which fit in the workgroup
// record; a persistent kernel's step, a work item with its sends and
// flags, a few more, which its launch allocates beside the records. A
// step that records more grows its own buffer.
const (
	gridCharges       = 4
	persistentCharges = 12
)

// run starts phys workgroups of lanes each on k, with room for perWG
// charges each, and blocks p until all have retired. Each workgroup's
// start is scheduled where spawning a process for it would have
// enqueued the process, so it takes the same seq.
func (d *Device) run(p *sim.Proc, k *launch, phys, lanes, perWG int) {
	k.done = sim.NewWaitGroup(d.e)
	k.done.Add(phys)
	wgs := make([]WG, phys)
	var bufs []charge
	if perWG > gridCharges {
		bufs = make([]charge, phys*perWG)
	}
	for i := range wgs {
		w := &wgs[i]
		w.Dev, w.PhysID, w.Lanes, w.k = d, i, lanes, k
		w.resume = w.run
		w.charges = w.buf[:0]
		if bufs != nil {
			w.charges = bufs[i*perWG : i*perWG : (i+1)*perWG]
		}
		d.e.At(d.e.Now(), w.resume)
	}
	k.done.Wait(p)
}

// launch is the state a kernel's workgroups share: where their steps
// come from, and the join the launcher waits on. A grid kernel hands out
// its logical items in order to whichever workgroup asks next; a
// persistent kernel starts each workgroup's own step function.
type launch struct {
	body        func(w *WG, logical int) // grid kernel
	next, items int
	start       func(w *WG) func() bool // persistent kernel
	done        *sim.WaitGroup
}

// wgState is where a workgroup's next callback resumes.
type wgState uint8

const (
	wgStart     wgState = iota // not yet asked for slots
	wgQueued                   // queued for slots
	wgRunning                  // resident; a charge is in flight or a wait is queued
	wgGathering                // resident; a gather is in flight
)

// chargeKind is what a recorded charge draws on or does.
type chargeKind uint8

const (
	chargeStream  chargeKind = iota // HBM streaming read or write
	chargeGather                    // HBM random gather, counted toward the knee
	chargeCompute                   // ALU flops
	chargeBusy                      // fixed duration
	chargeThen                      // functional work (WG.Then)
	chargeAfter                     // schedule fn, not blocking (WG.After)
	chargeWaitGE                    // block until flag >= amount
	chargeWaitEQ                    // block until flag == amount
	chargeAdd                       // add amount to flag
)

// charge is one recorded cost, wait, flag update or Then.
type charge struct {
	kind chargeKind
	// amount is the bytes or flops of a transfer, the nanoseconds of a
	// Busy, or the flag value waited for or added. Durations and flag
	// values are integers far inside float64's exact range, so one
	// field holds them all and a charge stays four words.
	amount float64
	fn     func()    // chargeThen, chargeAfter
	flag   *sim.Flag // chargeWait*, chargeAdd
}

// charge records a transfer; a zero-size one is skipped, as a blocking
// Transfer returns at once without an event.
func (w *WG) charge(kind chargeKind, amount float64) {
	if amount <= 0 {
		return
	}
	w.charges = append(w.charges, charge{kind: kind, amount: amount})
}

// nextStep records the workgroup's next step and reports whether there
// was one: the next logical item of a grid kernel, or a persistent
// kernel's next call of its step function.
func (w *WG) nextStep() bool {
	k := w.k
	if k.body == nil {
		return w.step != nil && w.step()
	}
	if k.next >= k.items {
		return false
	}
	k.next++
	k.body(w, k.next-1)
	return true
}

// run is the workgroup's one callback. It takes slots on its first call
// (and starts a persistent kernel's body once they are granted) and
// drops the gather count when a gather completes, then issues charges
// until one is in flight or a wait is queued, recording the next step
// each time the current one's charges are done, and retires once there
// is no step left. Every step takes the event a process would have
// taken: a queued slot admission, a completion and a flag wake take the
// seq of the blocked process's wake, a Busy takes Sleep's, and a charge
// that need not block (a wait whose condition holds, a Then, a flag
// update) runs inline, as the process would have run on.
func (w *WG) run() {
	d, lanes := w.Dev, w.Lanes
	switch w.state {
	case wgStart:
		w.state = wgQueued
		if !d.slots.AcquireFunc(lanes, w.resume) {
			return
		}
		fallthrough
	case wgQueued:
		w.state = wgRunning
		d.activeWGs += lanes
		if w.k.start != nil {
			w.step = w.k.start(w)
		}
	case wgGathering:
		w.state = wgRunning
		d.activeGathers -= lanes
	}
	for {
		for w.pc < len(w.charges) {
			c := &w.charges[w.pc]
			w.pc++
			switch c.kind {
			case chargeStream:
				d.hbm.TransferAsync(c.amount, w.streamCap(), w.resume)
			case chargeGather:
				d.activeGathers += lanes
				w.state = wgGathering
				d.hbm.TransferAsync(c.amount, w.streamCap(), w.resume)
			case chargeCompute:
				d.alu.TransferAsync(c.amount, w.computeCap(), w.resume)
			case chargeBusy:
				if d.e.Delay(sim.Duration(c.amount), w.resume) {
					continue
				}
			case chargeThen:
				c.fn()
				continue
			case chargeAfter:
				d.e.After(sim.Duration(c.amount), c.fn)
				continue
			case chargeWaitGE, chargeWaitEQ:
				v := int64(c.amount)
				if c.kind == chargeWaitGE && c.flag.WaitGEFunc(v, w.resume) ||
					c.kind == chargeWaitEQ && c.flag.WaitEQFunc(v, w.resume) {
					continue
				}
				w.pc-- // test again when woken
			case chargeAdd:
				c.flag.Add(int64(c.amount))
				continue
			}
			return
		}
		clear(w.charges) // drop the finished step's closures and flags
		w.charges, w.pc = w.charges[:0], 0
		if !w.nextStep() {
			break
		}
	}
	w.step = nil
	d.activeWGs -= lanes
	d.slots.Release(lanes)
	w.k.done.Done()
}
