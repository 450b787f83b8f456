// Package triton is a miniature analogue of the Triton tile-programming
// framework, extended — as the paper does (§III-D) — with communication
// primitives so custom fused computation-collective kernels can be
// written at tile granularity without touching the runtime internals.
//
// A kernel is a "program" body executed once per tile (program id), like
// Triton's launch grid. The body expresses costs through tile
// primitives (Load, Dot, Store) and communication through the comm
// extensions (CommPutRows, CommFlag, CommWait). Programs are multiplexed
// onto persistent physical workgroups; the Order hook reorders program
// execution (communication-aware scheduling). Like any workgroup body
// (see gpu.WG), a program records its work rather than running it, and
// reads state other workgroups write (data behind a CommWait) through
// tc.WG().Then.
package triton

import (
	"fmt"

	"fusedcc/internal/gpu"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

// Builder assembles a tile kernel for one device. The kernel launches
// as a persistent gpu.Kernel: each physical workgroup runs its programs
// (every NumPhys-th entry of the order, from its own index) as
// successive steps, each recorded once the previous program's charges
// have completed, then OnRetire's hook as its last step.
type Builder struct {
	name     string
	dev      *gpu.Device
	world    *shmem.World
	grid     int
	wgsPerCU int
	order    []int
	body     func(tc *TileCtx)
	onRetire func(tc *TileCtx)
}

// NewBuilder starts a kernel definition. world may be nil for
// compute-only kernels (the comm primitives then panic, mirroring a
// Triton build without the communication extension linked in).
func NewBuilder(name string, dev *gpu.Device, world *shmem.World) *Builder {
	return &Builder{name: name, dev: dev, world: world}
}

// Grid sets the program (tile) count.
func (b *Builder) Grid(n int) *Builder { b.grid = n; return b }

// Occupancy caps resident WGs per CU (register pressure of the kernel).
func (b *Builder) Occupancy(wgsPerCU int) *Builder { b.wgsPerCU = wgsPerCU; return b }

// Order sets the program execution order (a permutation of [0,grid)).
// Programs are issued to persistent WGs in this order; default is
// natural order.
func (b *Builder) Order(order []int) *Builder { b.order = order; return b }

// Body sets the per-program function.
func (b *Builder) Body(fn func(tc *TileCtx)) *Builder { b.body = fn; return b }

// Launch runs the kernel, blocking the calling process until every
// program has executed and every workgroup has retired.
func (b *Builder) Launch(p *sim.Proc) {
	if b.grid <= 0 {
		panic("triton: kernel " + b.name + " needs Grid > 0")
	}
	if b.body == nil {
		panic("triton: kernel " + b.name + " has no Body")
	}
	order := b.order
	if order == nil {
		order = make([]int, b.grid)
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != b.grid {
		panic(fmt.Sprintf("triton: kernel %s order has %d entries for grid %d", b.name, len(order), b.grid))
	}
	perCU := b.wgsPerCU
	if perCU <= 0 || perCU > b.dev.Config().MaxWGSlotsPerCU {
		perCU = b.dev.Config().MaxWGSlotsPerCU
	}
	phys := b.dev.Config().CUs * perCU
	if phys > b.grid {
		phys = b.grid
	}
	b.dev.Launch(p, gpu.Kernel{
		Name:     b.name,
		PhysWGs:  phys,
		WGsPerCU: perCU,
		Body: func(wg *gpu.WG) func() bool {
			tc := &TileCtx{wg: wg, world: b.world, Phys: wg.PhysID, NumPhys: phys}
			i, retired := wg.PhysID, b.onRetire == nil
			step := func() bool {
				switch {
				case i < b.grid:
					tc.PID = order[i]
					i += phys
					b.body(tc)
				case !retired:
					retired = true
					b.onRetire(tc)
				default:
					return false
				}
				return true
			}
			step()
			return step
		},
	})
}

// OnRetire registers fn to run on each physical WG after it has executed
// all of its programs — the hook for end-of-kernel synchronization
// (raising per-peer flags, polling for incoming tiles).
func (b *Builder) OnRetire(fn func(tc *TileCtx)) *Builder { b.onRetire = fn; return b }

// TileCtx is the execution context of one program instance.
type TileCtx struct {
	wg      *gpu.WG
	world   *shmem.World
	PID     int // current program (tile) id
	Phys    int // physical workgroup id
	NumPhys int // physical workgroup count
}

// WG exposes the underlying workgroup (escape hatch for host helpers).
func (tc *TileCtx) WG() *gpu.WG { return tc.wg }

// Load charges a tile load of bytes from device memory (tl.load).
func (tc *TileCtx) Load(bytes float64) { tc.wg.Read(bytes) }

// Dot charges flops of tile math on the ALU (tl.dot).
func (tc *TileCtx) Dot(flops float64) { tc.wg.Compute(flops) }

// Store writes vals (rows x rowLen, row-major; nil in timing mode) into
// a local buffer with the given stride (tl.store), once the write
// completes.
func (tc *TileCtx) Store(dst *gpu.Buffer, dstOff, dstStride int, vals []float32, rows, rowLen int) {
	tc.wg.Write(float64(rows*rowLen) * 4)
	if vals == nil || !dst.Functional() {
		return
	}
	tc.wg.Then(func() {
		for r := 0; r < rows; r++ {
			copy(dst.Data()[dstOff+r*dstStride:dstOff+r*dstStride+rowLen], vals[r*rowLen:(r+1)*rowLen])
		}
	})
}

// comm returns the world or panics (extension not linked).
func (tc *TileCtx) comm() *shmem.World {
	if tc.world == nil {
		panic("triton: communication primitive used in a kernel built without a world")
	}
	return tc.world
}

// CommPutRows streams a tile (rows x rowLen) into dstPE's instance of a
// symmetric buffer over the route the topology allows: zero-copy native
// stores to same-node PEs (the scale-up extension), ordered-channel
// puts across nodes.
func (tc *TileCtx) CommPutRows(dstPE int, dst *shmem.Symm, dstOff, dstStride int, vals []float32, rows, rowLen int) {
	tc.comm().SendValuesRows(tc.wg, dstPE, dst, dstOff, dstStride, vals, rows, rowLen)
}

// CommFlag adds delta to flag idx on dstPE, ordered after this WG's
// earlier CommPutRows calls on either route (native stores are fenced,
// channel puts deliver in order).
func (tc *TileCtx) CommFlag(dstPE int, f *shmem.Flags, idx int, delta int64) {
	tc.comm().SendFlag(tc.wg, dstPE, f, idx, delta)
}

// CommWait blocks the program, once its earlier charges complete, until
// the local flag idx reaches v.
func (tc *TileCtx) CommWait(f *shmem.Flags, idx int, v int64) {
	f.WaitGE(tc.wg, idx, v)
}
