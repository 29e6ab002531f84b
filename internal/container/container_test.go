package container

import (
	"testing"

	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

func newTestHost() (*Host, *simtime.Clock) {
	c := simtime.NewClock()
	sw := simnet.NewSwitch(c, 100*simtime.Microsecond, 28*simtime.Millisecond)
	return NewHost("host1", c, sw), c
}

func TestCreateWiresEverything(t *testing.T) {
	h, _ := newTestHost()
	ctr := Create(h, Spec{ID: "c1", IP: "10.0.0.5", Cores: 4})
	if ctr.Cgroup == nil || ctr.NS == nil || ctr.FS == nil || ctr.Stack == nil || ctr.Qdisc == nil {
		t.Fatal("missing component")
	}
	if len(ctr.Mounts.Mounts()) != 3 {
		t.Fatalf("mounts = %d", len(ctr.Mounts.Mounts()))
	}
	if h.Switch.Lookup("10.0.0.5") != ctr.Port {
		t.Fatal("container IP not learned by bridge")
	}
	if ctr.Cores != 4 {
		t.Fatal("cores not set")
	}
}

func TestCreateDefaultsCores(t *testing.T) {
	h, _ := newTestHost()
	ctr := Create(h, Spec{ID: "c1", IP: "ip"})
	if ctr.Cores != 1 {
		t.Fatalf("default cores = %d", ctr.Cores)
	}
}

func TestAddProcessJoinsCgroupWithLibs(t *testing.T) {
	h, _ := newTestHost()
	ctr := Create(h, Spec{ID: "c1", IP: "ip"})
	p := ctr.AddProcess("app", 3)
	if p.ContainerID != "c1" {
		t.Fatal("container id not set")
	}
	if pids := h.Kernel.CollectCgroup(ctr.Cgroup).PIDs; len(pids) != 1 || pids[0] != p.PID {
		t.Fatal("process not in cgroup")
	}
	if len(p.Mem.MappedFiles()) != 3 {
		t.Fatalf("mapped libs = %d", len(p.Mem.MappedFiles()))
	}
}

func TestTaskSchedulingConsumesCPU(t *testing.T) {
	h, clock := newTestHost()
	ctr := Create(h, Spec{ID: "c1", IP: "ip"})
	p := ctr.AddProcess("app", 0)
	steps := 0
	ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
		steps++
		return simtime.Millisecond, simtime.Millisecond
	})
	clock.RunUntil(simtime.Time(10*simtime.Millisecond + simtime.Microsecond))
	if steps < 10 || steps > 12 {
		t.Fatalf("steps = %d in 10ms at 1ms cadence", steps)
	}
	if ctr.Cgroup.CPUUsage() < 10*simtime.Millisecond {
		t.Fatalf("cpuacct = %v", ctr.Cgroup.CPUUsage())
	}
}

func TestFreezeStopsExecutionThawResumes(t *testing.T) {
	h, clock := newTestHost()
	ctr := Create(h, Spec{ID: "c1", IP: "ip"})
	p := ctr.AddProcess("app", 0)
	steps := 0
	ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
		steps++
		return simtime.Millisecond, simtime.Millisecond
	})
	clock.RunUntil(simtime.Time(5 * simtime.Millisecond))
	ctr.Freeze()
	at := steps
	clock.RunFor(20 * simtime.Millisecond)
	if steps != at {
		t.Fatalf("steps advanced while frozen: %d → %d", at, steps)
	}
	usage := ctr.Cgroup.CPUUsage()
	clock.RunFor(10 * simtime.Millisecond)
	if ctr.Cgroup.CPUUsage() != usage {
		t.Fatal("cpuacct advanced while frozen")
	}
	ctr.Thaw()
	clock.RunFor(10 * simtime.Millisecond)
	if steps <= at {
		t.Fatal("no steps after thaw")
	}
}

func TestBlockedTaskWaitsForWake(t *testing.T) {
	h, clock := newTestHost()
	ctr := Create(h, Spec{ID: "c1", IP: "ip"})
	p := ctr.AddProcess("app", 0)
	steps := 0
	task := ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
		steps++
		return 100 * simtime.Microsecond, Blocked
	})
	clock.RunFor(10 * simtime.Millisecond)
	if steps != 1 {
		t.Fatalf("blocked task ran %d times, want 1", steps)
	}
	if p.MainThread().State != simkernel.ThreadBlocked {
		t.Fatal("thread not marked blocked")
	}
	task.Wake()
	clock.RunFor(simtime.Millisecond)
	if steps != 2 {
		t.Fatalf("wake did not run task: steps=%d", steps)
	}
}

func TestWakeWhileFrozenDefersUntilThaw(t *testing.T) {
	h, clock := newTestHost()
	ctr := Create(h, Spec{ID: "c1", IP: "ip"})
	p := ctr.AddProcess("app", 0)
	steps := 0
	task := ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
		steps++
		return 10 * simtime.Microsecond, Blocked
	})
	clock.RunFor(simtime.Millisecond)
	ctr.Freeze()
	task.Wake()
	clock.RunFor(10 * simtime.Millisecond)
	if steps != 1 {
		t.Fatal("woken task ran while frozen")
	}
	ctr.Thaw()
	clock.RunFor(simtime.Millisecond)
	if steps != 2 {
		t.Fatalf("woken task did not run after thaw: %d", steps)
	}
}

func TestStopHaltsEverything(t *testing.T) {
	h, clock := newTestHost()
	ctr := Create(h, Spec{ID: "c1", IP: "ip"})
	p := ctr.AddProcess("app", 0)
	steps := 0
	ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
		steps++
		return simtime.Millisecond, simtime.Millisecond
	})
	clock.RunFor(3 * simtime.Millisecond)
	ctr.Stop()
	at := steps
	clock.RunFor(10 * simtime.Millisecond)
	if steps != at {
		t.Fatal("task ran after Stop")
	}
	if !ctr.Stopped() {
		t.Fatal("Stopped() = false")
	}
}

func TestRuntimeOverheadFoldedIn(t *testing.T) {
	h, clock := newTestHost()
	ctr := Create(h, Spec{ID: "c1", IP: "ip"})
	p := ctr.AddProcess("app", 0)
	p.Mem.SetSoftDirtyTracking(true)
	vma := p.Mem.Mmap(100*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", "c1")
	_ = p.Mem.Touch(vma, 0, 100, 1) // pre-fault
	p.Mem.ConsumeTrackingOverhead()
	p.Mem.ClearSoftDirtyBits()

	ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
		_ = p.Mem.Touch(vma, 0, 10, 2)
		return 100 * simtime.Microsecond, Blocked
	})
	clock.RunFor(simtime.Millisecond)
	want := 10 * h.Kernel.Costs.SoftDirtyFault
	if ctr.RuntimeOverhead != want {
		t.Fatalf("runtime overhead = %v, want %v", ctr.RuntimeOverhead, want)
	}
	if ctr.CPUBusy != 100*simtime.Microsecond+want {
		t.Fatalf("CPUBusy = %v", ctr.CPUBusy)
	}
}

func TestKeepAliveAdvancesCpuacct(t *testing.T) {
	h, clock := newTestHost()
	ctr := Create(h, Spec{ID: "c1", IP: "ip"})
	ctr.StartKeepAlive(30 * simtime.Millisecond)
	clock.RunFor(100 * simtime.Millisecond)
	u1 := ctr.Cgroup.CPUUsage()
	if u1 == 0 {
		t.Fatal("keep-alive did not charge CPU")
	}
	clock.RunFor(100 * simtime.Millisecond)
	if ctr.Cgroup.CPUUsage() <= u1 {
		t.Fatal("keep-alive stopped advancing cpuacct")
	}
}

// A re-protected container keeps the keep-alive task it already runs:
// a second start returns that task and adds no process.
func TestKeepAliveStartsOnce(t *testing.T) {
	h, _ := newTestHost()
	ctr := Create(h, Spec{ID: "c1", IP: "ip"})
	first := ctr.StartKeepAlive(30 * simtime.Millisecond)
	procs, tasks := len(ctr.Procs), len(ctr.Tasks)
	if again := ctr.StartKeepAlive(30 * simtime.Millisecond); again != first {
		t.Fatal("second StartKeepAlive started another task")
	}
	if len(ctr.Procs) != procs || len(ctr.Tasks) != tasks {
		t.Fatalf("procs %d→%d, tasks %d→%d after a second start", procs, len(ctr.Procs), tasks, len(ctr.Tasks))
	}
}

func TestKeepAliveStopsWhenFrozen(t *testing.T) {
	h, clock := newTestHost()
	ctr := Create(h, Spec{ID: "c1", IP: "ip"})
	ctr.StartKeepAlive(30 * simtime.Millisecond)
	clock.RunFor(100 * simtime.Millisecond)
	ctr.Freeze()
	u := ctr.Cgroup.CPUUsage()
	clock.RunFor(200 * simtime.Millisecond)
	if ctr.Cgroup.CPUUsage() != u {
		t.Fatal("cpuacct advanced while frozen (heartbeat would mask real failure)")
	}
}

func TestDisconnectBlocksTraffic(t *testing.T) {
	h, clock := newTestHost()
	ctr := Create(h, Spec{ID: "c1", IP: "10.0.0.5"})
	// A client on the same switch.
	cp := h.Switch.Attach()
	client := simnet.NewStack(clock, "10.0.0.1", cp.Send)
	cp.SetReceiver(client.Receive)
	h.Switch.Learn("10.0.0.1", cp)

	accepted := 0
	ctr.Stack.Listen(80, func(*simnet.Socket) { accepted++ })
	ctr.Disconnect()
	client.Connect("10.0.0.5", 80, nil)
	clock.RunFor(500 * simtime.Millisecond)
	if accepted != 0 {
		t.Fatal("connection reached disconnected container")
	}
	ctr.Reconnect()
	clock.Run()
	if accepted != 1 {
		t.Fatalf("reconnect: accepted = %d (SYN retry should land)", accepted)
	}
}

func TestContainerNetworkThroughQdisc(t *testing.T) {
	h, clock := newTestHost()
	ctr := Create(h, Spec{ID: "c1", IP: "10.0.0.5"})
	cp := h.Switch.Attach()
	client := simnet.NewStack(clock, "10.0.0.1", cp.Send)
	cp.SetReceiver(client.Receive)
	h.Switch.Learn("10.0.0.1", cp)

	var reply []byte
	ctr.Stack.Listen(7, func(s *simnet.Socket) {
		s.OnData = func(s *simnet.Socket) { s.Send(s.ReadAll()) }
	})
	client.Connect("10.0.0.5", 7, func(s *simnet.Socket) {
		s.OnData = func(s *simnet.Socket) { reply = append(reply, s.ReadAll()...) }
		s.Send([]byte("ping"))
	})
	clock.Run()
	if string(reply) != "ping" {
		t.Fatalf("echo through container qdisc = %q", reply)
	}
}

func TestEgressHeldWhileReplicating(t *testing.T) {
	h, clock := newTestHost()
	ctr := Create(h, Spec{ID: "c1", IP: "10.0.0.5"})
	cp := h.Switch.Attach()
	client := simnet.NewStack(clock, "10.0.0.1", cp.Send)
	cp.SetReceiver(client.Receive)
	h.Switch.Learn("10.0.0.1", cp)

	var reply []byte
	ctr.Stack.Listen(7, func(s *simnet.Socket) {
		s.OnData = func(s *simnet.Socket) { s.Send(s.ReadAll()) }
	})
	// Connect first (pass-through), then enable replication buffering.
	var cl *simnet.Socket
	client.Connect("10.0.0.5", 7, func(s *simnet.Socket) {
		cl = s
		s.OnData = func(s *simnet.Socket) { reply = append(reply, s.ReadAll()...) }
	})
	clock.Run()
	ctr.Qdisc.SetReplicating(true)
	cl.Send([]byte("held"))
	clock.RunFor(50 * simtime.Millisecond)
	if len(reply) != 0 {
		t.Fatal("output escaped the plug qdisc before release")
	}
	ctr.Qdisc.Rotate(0)
	ctr.Qdisc.Release(0)
	clock.RunFor(50 * simtime.Millisecond)
	if string(reply) != "held" {
		t.Fatalf("after release reply = %q", reply)
	}
}
