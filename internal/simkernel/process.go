package simkernel

import (
	"nilicon/internal/ftrace"
	"nilicon/internal/simtime"
)

// ThreadState is a thread's scheduler state.
type ThreadState int

// Thread states.
const (
	ThreadRunning ThreadState = iota
	ThreadBlocked
	ThreadFrozen
)

// Registers is the architectural register file the parasite must collect.
type Registers struct {
	PC, SP uint64
	GP     [8]uint64
}

// SchedPolicy is the thread's scheduling class.
type SchedPolicy struct {
	Policy string // "SCHED_OTHER", "SCHED_FIFO", ...
}

// Thread is one kernel task.
type Thread struct {
	TID     int
	Proc    *Process
	Regs    Registers
	SigMask uint64
	Policy  SchedPolicy
	State   ThreadState
	// InSyscall marks a thread currently executing a system call; the
	// freezer must interrupt it, which takes longer (§II-B).
	InSyscall bool
	// prevState remembers the state to restore on thaw.
	prevState ThreadState
}

// Timer is a POSIX interval timer owned by a process; part of the state
// only the parasite can retrieve (§II-B).
type Timer struct {
	ID        int
	Interval  simtime.Duration
	Remaining simtime.Duration
}

// FDKind classifies file descriptors.
type FDKind int

// Descriptor kinds.
const (
	FDFile FDKind = iota
	FDSocket
	FDPipe
	FDDevice
	FDEventFD
)

// FD is one open file descriptor.
type FD struct {
	Num    int
	Kind   FDKind
	Path   string // file path or device node; empty for sockets/pipes
	Offset int64
	// SockID links FDSocket descriptors to the simnet socket table.
	SockID int
	Flags  int
}

// Process is a kernel process: threads sharing an address space and a
// descriptor table.
type Process struct {
	PID         int
	Name        string
	ContainerID string

	Threads []*Thread
	Mem     *AddressSpace
	FDs     map[int]*FD
	Timers  []*Timer

	k       *Kernel
	nextTID int
	nextFD  int
}

// NewThread adds a thread to the process.
func (p *Process) NewThread() *Thread {
	t := &Thread{
		TID:    p.PID*1000 + p.nextTID,
		Proc:   p,
		Policy: SchedPolicy{Policy: "SCHED_OTHER"},
		State:  ThreadRunning,
	}
	p.nextTID++
	p.Threads = append(p.Threads, t)
	return t
}

// MainThread returns the first thread.
func (p *Process) MainThread() *Thread { return p.Threads[0] }

// OpenFD allocates a descriptor of the given kind.
func (p *Process) OpenFD(kind FDKind, path string) *FD {
	fd := &FD{Num: p.nextFD, Kind: kind, Path: path}
	p.nextFD++
	p.FDs[fd.Num] = fd
	if kind == FDDevice {
		p.k.Trace.Fire(ftraceEvent("chrdev_open", p.ContainerID))
	}
	return fd
}

// FDList returns the descriptors in ascending numeric order.
func (p *Process) FDList() []*FD {
	out := make([]*FD, 0, len(p.FDs))
	for n := 0; n < p.nextFD; n++ {
		if fd, ok := p.FDs[n]; ok {
			out = append(out, fd)
		}
	}
	return out
}

// AddTimer registers an interval timer.
func (p *Process) AddTimer(interval, remaining simtime.Duration) *Timer {
	t := &Timer{ID: len(p.Timers) + 1, Interval: interval, Remaining: remaining}
	p.Timers = append(p.Timers, t)
	return t
}

// ThreadSnapshot is the per-thread state the parasite collects.
type ThreadSnapshot struct {
	TID     int
	Regs    Registers
	SigMask uint64
	Policy  SchedPolicy
}

// GetThreadState retrieves one thread's registers, signal mask and
// scheduling policy through the parasite, charging the per-thread cost
// the paper measures at ≈130 µs (§VII-C).
func (k *Kernel) GetThreadState(t *Thread) ThreadSnapshot {
	k.Charge(k.Costs.ThreadState)
	return ThreadSnapshot{TID: t.TID, Regs: t.Regs, SigMask: t.SigMask, Policy: t.Policy}
}

// FDSnapshot is one descriptor's checkpointed state.
type FDSnapshot struct {
	Num    int
	Kind   FDKind
	Path   string
	Offset int64
	SockID int
	Flags  int
}

// CollectFDs gathers the descriptor table, charging per entry.
func (k *Kernel) CollectFDs(p *Process) []FDSnapshot {
	out := make([]FDSnapshot, 0, len(p.FDs))
	for _, fd := range p.FDList() {
		k.Charge(k.Costs.FDEntry)
		out = append(out, FDSnapshot{
			Num: fd.Num, Kind: fd.Kind, Path: fd.Path,
			Offset: fd.Offset, SockID: fd.SockID, Flags: fd.Flags,
		})
	}
	return out
}

// TimerSnapshot is one timer's checkpointed state.
type TimerSnapshot struct {
	ID        int
	Interval  simtime.Duration
	Remaining simtime.Duration
}

// CollectTimers gathers the process's POSIX timers via the parasite.
func (k *Kernel) CollectTimers(p *Process) []TimerSnapshot {
	out := make([]TimerSnapshot, 0, len(p.Timers))
	for _, t := range p.Timers {
		k.Charge(k.Costs.TimerEntry)
		out = append(out, TimerSnapshot{ID: t.ID, Interval: t.Interval, Remaining: t.Remaining})
	}
	return out
}

// StatMappedFiles models the stat() call stock CRIU issues per
// memory-mapped file (dynamic libraries etc.; §V cause (1)): it charges
// one StatFile per distinct file.
func (k *Kernel) StatMappedFiles(p *Process) {
	for range p.Mem.MappedFiles() {
		k.ChargeSyscall(k.Costs.StatFile)
	}
}

func ftraceEvent(fn, containerID string) ftrace.Event {
	return ftrace.Event{Fn: fn, ContainerID: containerID}
}
