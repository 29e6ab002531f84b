package simkernel

import (
	"math/rand"
	"slices"
	"testing"

	"nilicon/internal/ftrace"
	"nilicon/internal/simtime"
)

func TestNewProcessBasics(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("redis", "c1")
	if p.PID != 1 {
		t.Fatalf("first PID = %d, want 1", p.PID)
	}
	if len(p.Threads) != 1 {
		t.Fatalf("threads = %d, want 1 initial thread", len(p.Threads))
	}
	if k.procs[p.PID] != p {
		t.Fatal("process not registered")
	}
	q := k.NewProcess("other", "c1")
	if q.PID != 2 {
		t.Fatalf("second PID = %d, want 2", q.PID)
	}
}

func TestProcessesOrderedByPID(t *testing.T) {
	k := newTestKernel()
	for i := 0; i < 5; i++ {
		k.NewProcess("p", "")
	}
	procs := k.Processes()
	if len(procs) != 5 {
		t.Fatalf("len = %d", len(procs))
	}
	for i := 1; i < len(procs); i++ {
		if procs[i].PID <= procs[i-1].PID {
			t.Fatal("not PID-ordered")
		}
	}
}

func TestMeterAccumulates(t *testing.T) {
	k := newTestKernel()
	m := k.StartMeter()
	k.Charge(5 * simtime.Millisecond)
	k.Charge(3 * simtime.Millisecond)
	if got := m.Stop(); got != 8*simtime.Millisecond {
		t.Fatalf("meter = %v, want 8ms", got)
	}
}

func TestChargeWithoutMeterDropped(t *testing.T) {
	k := newTestKernel()
	k.Charge(time5())
	m := k.StartMeter()
	if m.Stop() != 0 {
		t.Fatal("meter saw charges issued before it started")
	}
}

func time5() simtime.Duration { return 5 * simtime.Millisecond }

func TestMetersNest(t *testing.T) {
	k := newTestKernel()
	outer := k.StartMeter()
	k.Charge(1 * simtime.Millisecond)
	inner := k.StartMeter()
	k.Charge(2 * simtime.Millisecond)
	if inner.Stop() != 2*simtime.Millisecond {
		t.Fatal("inner meter wrong")
	}
	k.Charge(4 * simtime.Millisecond)
	// Outer sees its own charges plus the inner total.
	if got := outer.Stop(); got != 7*simtime.Millisecond {
		t.Fatalf("outer = %v, want 7ms", got)
	}
}

// TestOuterStopEndsInnerMeters: stopping an outer meter first ends the
// inner one still active, whose charges count toward the outer total;
// the inner meter's own Stop then changes nothing.
func TestOuterStopEndsInnerMeters(t *testing.T) {
	k := newTestKernel()
	outer := k.StartMeter()
	k.Charge(1 * simtime.Millisecond)
	inner := k.StartMeter()
	k.Charge(2 * simtime.Millisecond)
	if got := outer.Stop(); got != 3*simtime.Millisecond {
		t.Fatalf("outer = %v, want 3ms", got)
	}
	if got := inner.Stop(); got != 0 {
		t.Fatalf("inner ended by the outer Stop = %v, want 0", got)
	}
	after := k.StartMeter()
	k.Charge(4 * simtime.Millisecond)
	if got := after.Stop(); got != 4*simtime.Millisecond {
		t.Fatalf("a meter started afterwards = %v, want 4ms", got)
	}
}

func TestMeterDoubleStopIdempotent(t *testing.T) {
	k := newTestKernel()
	m := k.StartMeter()
	k.Charge(time5())
	a := m.Stop()
	b := m.Stop()
	if a != b {
		t.Fatal("double Stop changed total")
	}
	// After stop, charges are dropped.
	k.Charge(time5())
	if m.Stop() != a {
		t.Fatal("stopped meter still accumulating")
	}
}

func TestChargeSyscallIncludesBase(t *testing.T) {
	k := newTestKernel()
	m := k.StartMeter()
	k.ChargeSyscall(0)
	if m.Stop() != k.Costs.SyscallBase {
		t.Fatal("syscall base cost missing")
	}
}

func TestFDTable(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("p", "")
	f1 := p.OpenFD(FDFile, "/data/log")
	f2 := p.OpenFD(FDSocket, "")
	if f1.Num != 3 || f2.Num != 4 {
		t.Fatalf("fd numbers = %d,%d, want 3,4 (stdio reserved)", f1.Num, f2.Num)
	}
	delete(p.FDs, f1.Num)
	list := p.FDList()
	if len(list) != 1 || list[0] != f2 {
		t.Fatalf("FDList after close = %v", list)
	}
}

func TestOpenDeviceFiresHook(t *testing.T) {
	k := newTestKernel()
	var events []ftrace.Event
	k.Trace.Register("chrdev_open", func(e ftrace.Event) { events = append(events, e) })
	p := k.NewProcess("p", "ctr")
	p.OpenFD(FDDevice, "/dev/null")
	p.OpenFD(FDFile, "/etc/hosts") // must not fire
	if len(events) != 1 || events[0].ContainerID != "ctr" {
		t.Fatalf("events = %+v", events)
	}
}

func TestCollectFDsChargesPerEntry(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("p", "")
	for i := 0; i < 10; i++ {
		p.OpenFD(FDFile, "/f")
	}
	m := k.StartMeter()
	snaps := k.CollectFDs(p)
	cost := m.Stop()
	if len(snaps) != 10 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	if cost != 10*k.Costs.FDEntry {
		t.Fatalf("cost = %v, want %v", cost, 10*k.Costs.FDEntry)
	}
}

func TestGetThreadStateChargesAndCopies(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("p", "")
	th := p.MainThread()
	th.Regs.PC = 0xdead
	th.SigMask = 0xff
	m := k.StartMeter()
	s := k.GetThreadState(th)
	if m.Stop() != k.Costs.ThreadState {
		t.Fatal("thread-state cost not charged")
	}
	if s.Regs.PC != 0xdead || s.SigMask != 0xff {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestCollectTimers(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("p", "")
	p.AddTimer(30*simtime.Millisecond, 10*simtime.Millisecond)
	m := k.StartMeter()
	ts := k.CollectTimers(p)
	if m.Stop() != k.Costs.TimerEntry {
		t.Fatal("timer cost not charged")
	}
	if len(ts) != 1 || ts[0].Interval != 30*simtime.Millisecond {
		t.Fatalf("timers = %+v", ts)
	}
}

func TestStatMappedFilesCost(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("p", "")
	p.Mem.Mmap(PageSize, ProtRead|ProtExec, "/lib/a.so", "")
	p.Mem.Mmap(PageSize, ProtRead, "/lib/a.so", "")
	p.Mem.Mmap(PageSize, ProtRead, "/lib/b.so", "")
	m := k.StartMeter()
	k.StatMappedFiles(p)
	cost := m.Stop()
	// Two distinct files: a.so mapped twice is stat'ed once.
	want := 2 * (k.Costs.SyscallBase + k.Costs.StatFile)
	if cost != want {
		t.Fatalf("cost = %v, want %v", cost, want)
	}
}

func TestSmapsVsNetlinkCosts(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("p", "")
	v := p.Mem.Mmap(1000*PageSize, ProtRead|ProtWrite, "", "")
	_ = p.Mem.Touch(v, 0, 1000, 1)
	for i := 0; i < 49; i++ {
		p.Mem.Mmap(PageSize, ProtRead, "", "")
	}

	m := k.StartMeter()
	smaps := k.ReadSmaps(p)
	smapsCost := m.Stop()

	m = k.StartMeter()
	nl := k.TaskDiagVMAs(p)
	nlCost := m.Stop()

	if len(smaps) != 50 || len(nl) != 50 {
		t.Fatalf("VMA counts: smaps=%d netlink=%d", len(smaps), len(nl))
	}
	if smapsCost <= nlCost*5 {
		t.Fatalf("smaps (%v) should be much slower than netlink (%v)", smapsCost, nlCost)
	}
}

func TestPagemapReturnsDirtyAndCharges(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("p", "")
	p.Mem.SetSoftDirtyTracking(true)
	v := p.Mem.Mmap(100*PageSize, ProtRead|ProtWrite, "", "")
	_ = p.Mem.Touch(v, 0, 100, 1)
	k.ClearRefs(p)
	_ = p.Mem.Touch(v, 5, 7, 2)
	m := k.StartMeter()
	dirty := k.ReadPagemap(p, nil)
	cost := m.Stop()
	if len(dirty) != 7 {
		t.Fatalf("dirty = %d, want 7", len(dirty))
	}
	want := k.Costs.SyscallBase + 100*k.Costs.PagemapPerPage
	if cost != want {
		t.Fatalf("pagemap cost = %v, want %v (scan is per resident page)", cost, want)
	}
}

// TestReadPagemapMatchesSortedDirtyList drives random writes, Touch
// calls and clear_refs over VMAs of odd sizes, one installed below the
// others, and checks after every step that ReadPagemap appends exactly
// the sorted list of the pages written since the last clear_refs.
func TestReadPagemapMatchesSortedDirtyList(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := newTestKernel()
	p := k.NewProcess("p", "")
	rw := ProtRead | ProtWrite
	vmas := []*VMA{
		p.Mem.Mmap(300*PageSize, rw, "", ""),
		p.Mem.Mmap(64*PageSize, rw, "", ""),
		p.Mem.Mmap(PageSize, rw, "", ""),
		p.Mem.InstallVMA(VMA{Start: PageSize, End: 15 * PageSize, Prot: rw}),
	}
	want := map[uint64]bool{}
	for step := 0; step < 2000; step++ {
		v := vmas[rng.Intn(len(vmas))]
		first := rng.Intn(v.Pages())
		count := 1 + rng.Intn(min(v.Pages()-first, 80))
		r := rng.Intn(10)
		switch {
		case r == 0:
			k.ClearRefs(p)
			clear(want)
		case r < 5:
			if err := p.Mem.Touch(v, first, count, byte(step)); err != nil {
				t.Fatal(err)
			}
		default:
			// A write that starts and ends inside pages, not on their
			// boundaries.
			addr := v.Start + uint64(first)*PageSize + 100
			if err := p.Mem.Write(addr, make([]byte, count*PageSize-200)); err != nil {
				t.Fatal(err)
			}
		}
		if r != 0 {
			for i := 0; i < count; i++ {
				want[v.Start/PageSize+uint64(first+i)] = true
			}
		}
		got := k.ReadPagemap(p, []uint64{42})
		var w []uint64
		for pn := range want {
			w = append(w, pn)
		}
		slices.Sort(w)
		if got[0] != 42 || !slices.Equal(got[1:], w) {
			t.Fatalf("step %d: ReadPagemap appended %d pages %v, want %d pages %v", step, len(got)-1, got[1:], len(w), w)
		}
	}
}

func TestNamespaceCollection(t *testing.T) {
	k := newTestKernel()
	ns := k.NewNamespaceSet("c1")
	k.SetNamespaceExtra(ns.UTS, "c1", "hostname", "ctr-1")
	m := k.StartMeter()
	snaps := k.CollectNamespaces(ns)
	cost := m.Stop()
	if cost != k.Costs.NamespaceCollect {
		t.Fatalf("cost = %v, want %v", cost, k.Costs.NamespaceCollect)
	}
	if len(snaps) != 6 {
		t.Fatalf("namespaces = %d, want 6", len(snaps))
	}
	found := false
	for _, s := range snaps {
		if s.Kind == NSUTS && s.Extra["hostname"] == "ctr-1" {
			found = true
		}
	}
	if !found {
		t.Fatal("UTS extra not collected")
	}
}

func TestNamespaceSnapshotIsDeepCopy(t *testing.T) {
	k := newTestKernel()
	ns := k.NewNamespaceSet("c1")
	snaps := k.CollectNamespaces(ns)
	snaps[0].Extra["mutated"] = "yes"
	if _, ok := ns.All()[0].Extra["mutated"]; ok {
		t.Fatal("snapshot aliases live namespace state")
	}
}

func TestMountTableHooks(t *testing.T) {
	k := newTestKernel()
	var fired []string
	k.Trace.Register("do_mount", func(e ftrace.Event) { fired = append(fired, e.Fn) })
	k.Trace.Register("sys_umount", func(e ftrace.Event) { fired = append(fired, e.Fn) })
	mt := k.NewMountTable()
	mt.Mount(Mount{Source: "tmpfs", Target: "/tmp", FSType: "tmpfs"}, "c1")
	mt.Mount(Mount{Source: "/dev/sda", Target: "/data", FSType: "ext4"}, "c1")
	mt.Unmount("/tmp", "c1")
	mt.Unmount("/nonexistent", "c1")
	if len(mt.Mounts()) != 1 {
		t.Fatalf("mounts = %v", mt.Mounts())
	}
	if want := []string{"do_mount", "do_mount", "sys_umount"}; !slices.Equal(fired, want) {
		t.Fatalf("hooks fired: %v, want %v", fired, want)
	}
}

func TestCgroupFreezeThaw(t *testing.T) {
	k := newTestKernel()
	cg := k.NewCgroup("/docker/c1")
	p := k.NewProcess("app", "c1")
	p.NewThread()
	p.Threads[1].InSyscall = true
	cg.AddProcess(p)

	settle := cg.Freeze()
	if settle != k.Costs.FreezeSettleUser+k.Costs.FreezeSettleSyscall {
		t.Fatalf("settle = %v (syscall thread should dominate)", settle)
	}
	if p.Threads[0].State != ThreadFrozen || p.Threads[1].State != ThreadFrozen || !cg.Frozen() {
		t.Fatal("not frozen after Freeze")
	}
	if cg.Freeze() != 0 {
		t.Fatal("double freeze should be a no-op")
	}
	cg.Thaw()
	if cg.Frozen() || p.Threads[0].State != ThreadRunning {
		t.Fatal("thaw did not restore state")
	}
	cg.Thaw() // idempotent
}

func TestCgroupCPUAccounting(t *testing.T) {
	k := newTestKernel()
	cg := k.NewCgroup("/c")
	cg.ChargeCPU(10 * simtime.Millisecond)
	cg.ChargeCPU(5 * simtime.Millisecond)
	if cg.CPUUsage() != 15*simtime.Millisecond {
		t.Fatalf("cpuacct = %v", cg.CPUUsage())
	}
}

func TestCgroupNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative CPU charge did not panic")
		}
	}()
	k := newTestKernel()
	k.NewCgroup("/c").ChargeCPU(-1)
}

func TestCgroupConfigHook(t *testing.T) {
	k := newTestKernel()
	n := 0
	k.Trace.Register("cgroup_file_write", func(ftrace.Event) { n++ })
	cg := k.NewCgroup("/c")
	cg.SetConfig("memory.limit_in_bytes", "4294967296")
	if n != 1 {
		t.Fatal("config write hook not fired")
	}
	snap := k.CollectCgroup(cg)
	if snap.Config["memory.limit_in_bytes"] != "4294967296" {
		t.Fatalf("snapshot config = %v", snap.Config)
	}
}

func TestCollectDevicesCopies(t *testing.T) {
	k := newTestKernel()
	devs := []DeviceFile{{Path: "/dev/null", Major: 1, Minor: 3}}
	m := k.StartMeter()
	got := k.CollectDevices(devs)
	if m.Stop() != k.Costs.DeviceCollect {
		t.Fatal("device collect cost missing")
	}
	got[0].Path = "/dev/zero"
	if devs[0].Path != "/dev/null" {
		t.Fatal("CollectDevices aliased input")
	}
}

func TestInfrequentStateTotalMatchesPaper(t *testing.T) {
	// §V-B: obtaining cgroups+namespaces+mounts+devices+mapped files for
	// streamcluster takes ≈160 ms. Verify the modeled components sum to
	// within 15% of that.
	k := newTestKernel()
	p := k.NewProcess("streamcluster", "c1")
	for i := 0; i < 30; i++ {
		p.Mem.Mmap(PageSize, ProtRead|ProtExec, "/lib/so"+string(rune('a'+i)), "c1")
	}
	cg := k.NewCgroup("/c1")
	cg.AddProcess(p)
	ns := k.NewNamespaceSet("c1")
	mt := k.NewMountTable()
	mt.Mount(Mount{Source: "overlay", Target: "/", FSType: "overlay"}, "c1")

	m := k.StartMeter()
	k.CollectCgroup(cg)
	k.CollectNamespaces(ns)
	k.CollectMounts(mt)
	k.CollectDevices(nil)
	k.StatMappedFiles(p)
	total := m.Stop()

	lo := 136 * simtime.Millisecond
	hi := 184 * simtime.Millisecond
	if total < lo || total > hi {
		t.Fatalf("infrequent-state collection = %v, want ≈160ms (±15%%)", total)
	}
}
