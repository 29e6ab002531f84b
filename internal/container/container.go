// Package container is the simulated container runtime (the runC
// equivalent): it assembles processes, namespaces, a control group with
// cpuacct and freezer, a mount table, a root file system, and a network
// namespace whose veth attaches to the host's virtual bridge through a
// plug qdisc. It also provides the cooperative task scheduler that runs
// workload threads in virtual time, folding dirty-tracking overhead into
// their execution (the paper's "runtime overhead" component), and the
// keep-alive process NiLiCon uses to keep cpuacct advancing on idle
// containers (§IV).
package container

import (
	"fmt"

	"nilicon/internal/simdisk"
	"nilicon/internal/simfs"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// App is implemented by workloads whose user-space state must survive
// failover. SnapshotState must return a deep copy; RestoreState
// reinitializes the application from such a copy. This models the
// application's memory contents at a semantic level, while the
// simkernel page machinery models their footprint and dirtying.
type App interface {
	SnapshotState() any
	RestoreState(snapshot any)
}

// Host is one physical machine: a kernel, a disk, and a NIC on the LAN
// switch.
type Host struct {
	Name   string
	Clock  *simtime.Clock
	Kernel *simkernel.Kernel
	Switch *simnet.Switch
	Disk   *simdisk.Disk
}

// NewHost creates a host attached to the given switch.
func NewHost(name string, clock *simtime.Clock, sw *simnet.Switch) *Host {
	return &Host{
		Name:   name,
		Clock:  clock,
		Kernel: simkernel.NewKernel(clock),
		Switch: sw,
		Disk:   simdisk.NewDisk(name + "-disk"),
	}
}

// StepFunc is one scheduling quantum of a workload thread. It returns
// the CPU time consumed and the delay until the thread wants to run
// again. A negative next means the thread blocks until Wake is called.
type StepFunc func() (busy, next simtime.Duration)

// Blocked is the next value a StepFunc returns to block its task.
const Blocked = simtime.Duration(-1)

// Task binds a kernel thread to a workload step function.
type Task struct {
	Thread *simkernel.Thread
	Step   StepFunc

	ctr     *Container
	blocked bool
	stopped bool
	pending *simtime.Event
	// wake is the reusable run callback: tasks reschedule on every step,
	// so allocating a fresh closure per wake is pure event-loop garbage.
	wake func()
	// readyAt is the earliest time the task may run again: a step that
	// consumed CPU occupies its thread for that long even if it then
	// blocks (a Wake cannot bypass the busy time).
	readyAt simtime.Time
	// frozenRemaining preserves the time left until the task's next run
	// when the freezer pauses the container; thaw resumes the countdown
	// rather than restarting the task immediately.
	frozenRemaining simtime.Duration
}

// Container is one running container.
type Container struct {
	ID    string
	Host  *Host
	IP    simnet.Addr
	Cores int

	Cgroup  *simkernel.Cgroup
	NS      *simkernel.NamespaceSet
	Mounts  *simkernel.MountTable
	Devices []simkernel.DeviceFile
	FS      *simfs.FS
	Stack   *simnet.Stack
	Qdisc   *simnet.PlugQdisc
	Port    *simnet.Port

	Procs []*simkernel.Process
	Tasks []*Task

	// App holds the workload's user-space state (may be nil for
	// workloads that keep all state in simulated pages/files).
	App App

	// SharesFrames marks a container whose page buffers may also be
	// another container's frames: one restored from a backup's page
	// store, and the primary whose checkpoints filled that store. A
	// raw backup store never recycles the pages of such a container's
	// full checkpoints (DESIGN.md §8).
	SharesFrames bool

	frozen   bool
	frozenAt simtime.Time
	stopped  bool

	// OnTaskStep, when set, observes every executed scheduling quantum
	// (the task's thread TID). The record/replay recorder folds the
	// sequence into a per-segment scheduling digest so failover replay
	// can detect divergence in scheduling decisions, not just in output.
	OnTaskStep func(tid int)

	// RuntimeOverhead accumulates dirty-tracking cost folded into task
	// execution since creation.
	RuntimeOverhead simtime.Duration
	// CPUBusy accumulates task CPU time (excluding frozen periods).
	CPUBusy simtime.Duration
}

// Spec configures container creation.
type Spec struct {
	ID    string
	IP    simnet.Addr
	Cores int
	// Store is the block layer for the root file system (a Disk or the
	// primary end of a DRBD pair). Defaults to the host disk.
	Store simfs.BlockStore
}

// Create builds a container on the host: fresh namespaces, a cgroup, a
// default mount table, a root FS, and a network namespace attached to
// the host switch through a plug qdisc.
func Create(h *Host, spec Spec) *Container {
	if spec.Cores <= 0 {
		spec.Cores = 1
	}
	c := &Container{ID: spec.ID, Host: h, IP: spec.IP, Cores: spec.Cores}
	c.Cgroup = h.Kernel.NewCgroup("/sys/fs/cgroup/" + spec.ID)
	c.NS = h.Kernel.NewNamespaceSet(0, spec.ID)
	h.Kernel.SetNamespaceExtra(c.NS.UTS, 0, spec.ID, "hostname", spec.ID)
	c.Mounts = h.Kernel.NewMountTable()
	c.Mounts.Mount(simkernel.Mount{Source: "overlay", Target: "/", FSType: "overlay"}, 0, spec.ID)
	c.Mounts.Mount(simkernel.Mount{Source: "proc", Target: "/proc", FSType: "proc"}, 0, spec.ID)
	c.Mounts.Mount(simkernel.Mount{Source: "tmpfs", Target: "/tmp", FSType: "tmpfs"}, 0, spec.ID)
	c.Devices = []simkernel.DeviceFile{
		{Path: "/dev/null", Major: 1, Minor: 3},
		{Path: "/dev/zero", Major: 1, Minor: 5},
		{Path: "/dev/urandom", Major: 1, Minor: 9},
	}
	store := spec.Store
	if store == nil {
		store = h.Disk
	}
	c.FS = simfs.New(h.Clock, store)
	c.FS.Kernel = h.Kernel

	c.Port = h.Switch.AttachOn(spec.ID+"-veth", h.Clock)
	c.Stack = simnet.NewStack(h.Clock, spec.IP, nil)
	c.Stack.Kernel = h.Kernel
	c.Qdisc = simnet.NewPlugQdisc(c.Port.Send, c.Stack.Receive)
	c.Stack.SetOutput(c.Qdisc.Egress)
	c.Port.SetReceiver(c.Qdisc.Ingress)
	h.Switch.Learn(spec.IP, c.Port)
	return c
}

// AddProcess creates a process inside the container and attaches it to
// the cgroup. Typical user-space mappings (a couple of dynamic
// libraries) are installed so checkpointing has realistic mapped files.
func (c *Container) AddProcess(name string, libs int) *simkernel.Process {
	p := c.Host.Kernel.NewProcess(name, c.ID)
	c.Cgroup.AddProcess(p)
	for i := 0; i < libs; i++ {
		p.Mem.Mmap(64*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtExec,
			fmt.Sprintf("/usr/lib/%s-lib%d.so", name, i), p.PID, c.ID)
	}
	c.Procs = append(c.Procs, p)
	return p
}

// AddTask registers a step function on a thread and starts scheduling
// it immediately.
func (c *Container) AddTask(th *simkernel.Thread, step StepFunc) *Task {
	t := &Task{Thread: th, Step: step, ctr: c}
	t.wake = func() { c.runTask(t) }
	c.Tasks = append(c.Tasks, t)
	c.scheduleTask(t, 0)
	return t
}

func (c *Container) scheduleTask(t *Task, d simtime.Duration) {
	t.pending = c.Host.Clock.Schedule(d, t.wake)
}

func (c *Container) runTask(t *Task) {
	if c.frozen || c.stopped || t.stopped || t.blocked {
		return
	}
	if t.Thread.State != simkernel.ThreadRunning {
		return
	}
	if c.OnTaskStep != nil {
		c.OnTaskStep(t.Thread.TID)
	}
	busy, next := t.Step()
	// Fold the runtime dirty-tracking overhead into execution time.
	overhead := t.Thread.Proc.Mem.ConsumeTrackingOverhead()
	c.RuntimeOverhead += overhead
	total := busy + overhead
	c.CPUBusy += total
	c.Cgroup.ChargeCPU(total)
	t.readyAt = c.Host.Clock.Now().Add(total)
	if next < 0 {
		t.blocked = true
		t.Thread.State = simkernel.ThreadBlocked
		return
	}
	if next < total {
		next = total
	}
	c.scheduleTask(t, next)
}

// Wake unblocks a task (e.g. data arrived on its socket).
func (t *Task) Wake() {
	if !t.blocked || t.stopped {
		return
	}
	t.blocked = false
	if t.Thread.State == simkernel.ThreadBlocked {
		t.Thread.State = simkernel.ThreadRunning
	}
	if !t.ctr.frozen && !t.ctr.stopped {
		// The thread stays occupied until its last step's CPU time has
		// elapsed; a wake cannot cut that short.
		delay := t.readyAt.Sub(t.ctr.Host.Clock.Now())
		if delay < 0 {
			delay = 0
		}
		t.ctr.scheduleTask(t, delay)
	}
}

// Stop permanently deschedules the task.
func (t *Task) Stop() {
	t.stopped = true
	if t.pending != nil {
		t.pending.Cancel()
	}
}

// Freeze pauses the container via the cgroup freezer and returns the
// settle time (§II-B). Each task's pending quantum is suspended: the
// time remaining until its next step is preserved and resumes counting
// at thaw (frozen time does not execute work).
func (c *Container) Freeze() simtime.Duration {
	settle := c.Cgroup.Freeze()
	c.frozen = true
	now := c.Host.Clock.Now()
	c.frozenAt = now
	for _, t := range c.Tasks {
		if t.stopped || t.blocked || t.pending == nil || t.pending.Canceled() {
			continue
		}
		t.frozenRemaining = t.pending.When().Sub(now)
		if t.frozenRemaining < 0 {
			t.frozenRemaining = 0
		}
		t.pending.Cancel()
	}
	return settle
}

// Thaw resumes execution: all runnable tasks are rescheduled and busy
// tails shift by the frozen duration (no CPU ran while frozen).
func (c *Container) Thaw() {
	c.Cgroup.Thaw()
	c.frozen = false
	frozenFor := c.Host.Clock.Now().Sub(c.frozenAt)
	for _, t := range c.Tasks {
		if t.readyAt > c.frozenAt {
			t.readyAt = t.readyAt.Add(frozenFor)
		}
	}
	for _, t := range c.Tasks {
		if !t.blocked && !t.stopped {
			// A task woken while frozen had its thread state snapshotted
			// as Blocked by the freezer; the wake takes effect now.
			if t.Thread.State == simkernel.ThreadBlocked {
				t.Thread.State = simkernel.ThreadRunning
			}
			if t.pending != nil {
				t.pending.Cancel()
			}
			// Resume the suspended countdown where the freeze stopped it.
			c.scheduleTask(t, t.frozenRemaining)
			t.frozenRemaining = 0
		}
	}
}

// Frozen reports the freezer state.
func (c *Container) Frozen() bool { return c.frozen }

// Stop halts the container permanently (fail-stop or teardown).
func (c *Container) Stop() {
	c.stopped = true
	for _, t := range c.Tasks {
		t.Stop()
	}
}

// Stopped reports whether the container has been stopped.
func (c *Container) Stopped() bool { return c.stopped }

// Disconnect detaches the container's veth from the bridge (drops all
// ingress/egress at the port).
func (c *Container) Disconnect() { c.Port.SetEnabled(false) }

// Reconnect reattaches the veth.
func (c *Container) Reconnect() { c.Port.SetEnabled(true) }

// StartKeepAlive installs the keep-alive process (§IV): it wakes every
// interval and executes ~1000 instructions so that cpuacct.usage always
// advances while the container is healthy, preventing false alarms from
// the heartbeat detector when the container is idle.
func (c *Container) StartKeepAlive(interval simtime.Duration) *Task {
	p := c.AddProcess("keepalive", 1)
	const instrCost = 500 * simtime.Nanosecond // ~1000 instructions
	return c.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
		return instrCost, interval
	})
}

// TotalResidentPages sums resident pages across the container's
// processes.
func (c *Container) TotalResidentPages() int {
	n := 0
	for _, p := range c.Procs {
		n += p.Mem.ResidentPages()
	}
	return n
}

func (c *Container) String() string {
	return fmt.Sprintf("container{%s on %s, procs=%d, frozen=%v}", c.ID, c.Host.Name, len(c.Procs), c.frozen)
}
