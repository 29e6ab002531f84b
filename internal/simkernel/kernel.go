// Package simkernel is a simulated Linux kernel: processes with threads,
// byte-addressable virtual memory with soft-dirty and write-protect dirty
// tracking, file-descriptor tables, control groups with cpuacct and
// freezer, namespaces and mount tables, and the checkpoint-relevant
// kernel interfaces (procfs smaps/pagemap/clear_refs, netlink task-diag,
// freezer, per-thread state retrieval).
//
// The package has two layers of fidelity (DESIGN.md §4): functional —
// real data structures whose contents checkpoint/restore must preserve —
// and timing — every kernel interface charges a calibrated virtual-time
// cost to the active Meter, so that NiLiCon's stop time and runtime
// overhead emerge from the same code paths the paper describes.
package simkernel

import (
	"nilicon/internal/ftrace"
	"nilicon/internal/simtime"
)

// Kernel is one host's simulated kernel. All methods are single-threaded:
// the simulation runs on one event loop.
type Kernel struct {
	Clock *simtime.Clock
	Costs *Costs
	// Trace is the ftrace hook registry; kernel mutation paths fire
	// events through it (see package ftrace).
	Trace ftrace.Registry

	nextPID int
	nextNS  int
	procs   map[int]*Process
	// meters is the stack of active meters, innermost last; meterGen
	// numbers them.
	meters   []meterFrame
	meterGen uint64
}

// NewKernel creates a kernel bound to the given clock, using the default
// cost model.
func NewKernel(clock *simtime.Clock) *Kernel {
	if clock == nil {
		panic("simkernel: NewKernel with nil clock")
	}
	return &Kernel{
		Clock:   clock,
		Costs:   DefaultCosts(),
		nextPID: 1,
		nextNS:  1,
		procs:   make(map[int]*Process),
	}
}

// Meter accumulates the virtual-time cost of a sequence of kernel
// operations — typically one checkpoint's state collection. Meters nest;
// the innermost active meter receives charges. A Meter is a small value
// naming a frame on a stack the kernel owns, so starting one allocates
// nothing once the stack has grown to the deepest nesting in use.
type Meter struct {
	k     *Kernel
	depth int
	// gen tells this meter's frame from a later meter's at the same
	// depth.
	gen   uint64
	total simtime.Duration
	done  bool
}

// meterFrame is one active meter's running total on the kernel's stack.
type meterFrame struct {
	total simtime.Duration
	gen   uint64
}

// StartMeter begins accumulating kernel-operation costs.
func (k *Kernel) StartMeter() Meter {
	k.meterGen++
	k.meters = append(k.meters, meterFrame{gen: k.meterGen})
	return Meter{k: k, depth: len(k.meters) - 1, gen: k.meterGen}
}

// Stop ends accumulation and returns the total accumulated cost, which
// also counts toward the enclosing meter. Meters must nest: stopping a
// meter ends every inner meter still active, and their charges count
// toward it. Stopping an already-stopped meter returns the same total
// and is otherwise a no-op.
func (m *Meter) Stop() simtime.Duration {
	if m.done {
		return m.total
	}
	m.done = true
	if m.depth >= len(m.k.meters) || m.k.meters[m.depth].gen != m.gen {
		// An outer meter's Stop ended this one first.
		return m.total
	}
	for i := len(m.k.meters) - 1; i > m.depth; i-- {
		m.k.meters[i-1].total += m.k.meters[i].total
	}
	m.total = m.k.meters[m.depth].total
	m.k.meters = m.k.meters[:m.depth]
	if m.depth > 0 {
		m.k.meters[m.depth-1].total += m.total
	}
	return m.total
}

// Charge adds d to the active meter, if any. Kernel-internal code calls
// this for every modeled operation; charges issued with no active meter
// are intentionally dropped (they represent background kernel work whose
// cost the experiment does not measure).
func (k *Kernel) Charge(d simtime.Duration) {
	if n := len(k.meters); n > 0 {
		k.meters[n-1].total += d
	}
}

// ChargeSyscall charges the fixed syscall entry/exit cost plus extra.
func (k *Kernel) ChargeSyscall(extra simtime.Duration) {
	k.Charge(k.Costs.SyscallBase + extra)
}

// NewProcess creates a process with one initial thread and an empty
// address space, belonging to the given container (empty for host
// processes).
func (k *Kernel) NewProcess(name, containerID string) *Process {
	p := &Process{
		PID:         k.nextPID,
		Name:        name,
		ContainerID: containerID,
		k:           k,
		FDs:         make(map[int]*FD),
		nextFD:      3, // 0,1,2 reserved for stdio
		Cwd:         "/",
	}
	k.nextPID++
	p.Mem = NewAddressSpace(k)
	p.NewThread()
	k.procs[p.PID] = p
	return p
}

// Processes returns all live processes in PID order.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, 0, len(k.procs))
	for pid := 1; pid < k.nextPID; pid++ {
		if p, ok := k.procs[pid]; ok {
			out = append(out, p)
		}
	}
	return out
}

// AllocNamespaceID returns a fresh namespace identifier.
func (k *Kernel) AllocNamespaceID() int {
	id := k.nextNS
	k.nextNS++
	return id
}
