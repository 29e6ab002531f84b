package simkernel

import (
	"fmt"

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
	ThreadExited
)

func (s ThreadState) String() string {
	switch s {
	case ThreadRunning:
		return "running"
	case ThreadBlocked:
		return "blocked"
	case ThreadFrozen:
		return "frozen"
	case ThreadExited:
		return "exited"
	default:
		return fmt.Sprintf("ThreadState(%d)", int(s))
	}
}

// Registers is the architectural register file the parasite must collect.
type Registers struct {
	PC, SP uint64
	GP     [8]uint64
}

// SchedPolicy is the thread's scheduling class and priority.
type SchedPolicy struct {
	Policy   string // "SCHED_OTHER", "SCHED_FIFO", ...
	Priority int
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

func (k FDKind) String() string {
	switch k {
	case FDFile:
		return "file"
	case FDSocket:
		return "socket"
	case FDPipe:
		return "pipe"
	case FDDevice:
		return "device"
	case FDEventFD:
		return "eventfd"
	default:
		return fmt.Sprintf("FDKind(%d)", int(k))
	}
}

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
	Parent      *Process

	Threads []*Thread
	Mem     *AddressSpace
	FDs     map[int]*FD
	Timers  []*Timer
	Cwd     string
	Exited  bool

	k       *Kernel
	nextTID int
	nextFD  int

	// randState is the deterministic entropy pool behind GetRandom,
	// seeded from the PID so every run draws the same sequence.
	randState uint64
	// randQueue holds injected values replayed ahead of the pool: the
	// record/replay driver pushes a failed-over container's recorded
	// draws here so re-executed handlers see the primary's exact results.
	randQueue []uint64
	// RandHook, when set, observes every GetRandom result (the recorder's
	// sim-syscall capture point).
	RandHook func(uint64)
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
		p.k.Trace.Fire(ftraceEvent("chrdev_open", p.PID, p.ContainerID, path))
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

// GetRandom models the getrandom(2) sim-syscall: a nondeterministic
// kernel result the checkpoint cannot capture (the pool advances between
// epochs). The simulation keeps it deterministic per process — a
// splitmix64 stream seeded from the PID — but record/replay must still
// log every draw: a restored process re-executing from a checkpoint
// would otherwise resume the stream at the checkpoint's position and
// diverge from the results the primary already exposed. Injected values
// (PushRand) are consumed before the pool, in FIFO order.
func (p *Process) GetRandom() uint64 {
	p.k.ChargeSyscall(0)
	var v uint64
	if len(p.randQueue) > 0 {
		v = p.randQueue[0]
		p.randQueue = p.randQueue[1:]
	} else {
		if p.randState == 0 {
			p.randState = uint64(p.PID)*0x9e3779b97f4a7c15 + 0x1
		}
		p.randState += 0x9e3779b97f4a7c15
		z := p.randState
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		v = z ^ (z >> 31)
	}
	if p.RandHook != nil {
		p.RandHook(v)
	}
	return v
}

// PushRand queues values for GetRandom to return ahead of the entropy
// pool (replay injection).
func (p *Process) PushRand(values ...uint64) {
	p.randQueue = append(p.randQueue, values...)
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
// memory-mapped file (dynamic libraries etc.; §V cause (1)). It returns
// the file list and charges one StatFile per distinct file.
func (k *Kernel) StatMappedFiles(p *Process) []string {
	files := p.Mem.MappedFiles()
	for range files {
		k.ChargeSyscall(k.Costs.StatFile)
	}
	return files
}

func ftraceEvent(fn string, pid int, containerID, detail string) ftrace.Event {
	return ftrace.Event{Fn: fn, PID: pid, ContainerID: containerID, Detail: detail}
}
