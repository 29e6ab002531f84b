package criu

import (
	"bytes"
	"slices"
	"testing"

	"nilicon/internal/container"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// checkpointThenRestore takes a full checkpoint of ctr and restores it
// on a fresh backup host sharing the same switch.
func checkpointThenRestore(t *testing.T, ctr *container.Container, clock *simtime.Clock) (*container.Container, *Image) {
	t.Helper()
	e := NewEngine(ctr, allOptions)
	defer e.Close()
	img, _ := e.Checkpoint()
	backup := container.NewHost("backup", clock, ctr.Host.Switch)
	restored, err := Restore(backup, img, backup.Disk)
	if err != nil {
		t.Fatal(err)
	}
	return restored, img
}

func TestRestoreRejectsIncrementalImage(t *testing.T) {
	ctr, clock := newTestContainer()
	addWorkProcess(ctr, "app", 4)
	e := NewEngine(ctr, allOptions)
	defer e.Close()
	_, _ = e.Checkpoint()
	ctr.Thaw()
	img, _ := e.Checkpoint()
	ctr.Thaw()
	backup := container.NewHost("backup", clock, ctr.Host.Switch)
	if _, err := Restore(backup, img, backup.Disk); err == nil {
		t.Fatal("incremental image accepted by Restore")
	}
}

func TestRestoreRecreatesMemory(t *testing.T) {
	ctr, clock := newTestContainer()
	p, v := addWorkProcess(ctr, "app", 8)
	_ = p.Mem.Write(v.Start+100, []byte("survives-failover"))
	restored, _ := checkpointThenRestore(t, ctr, clock)

	if len(restored.Procs) != 1 {
		t.Fatalf("restored procs = %d", len(restored.Procs))
	}
	rp := restored.Procs[0]
	got, err := rp.Mem.Read(v.Start+100, 17)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "survives-failover" {
		t.Fatalf("restored memory = %q", got)
	}
	if rp.Mem.ResidentPages() != p.Mem.ResidentPages() {
		t.Fatalf("resident pages %d vs %d", rp.Mem.ResidentPages(), p.Mem.ResidentPages())
	}
}

func TestRestoreRecreatesThreadsAndFDs(t *testing.T) {
	ctr, clock := newTestContainer()
	p, _ := addWorkProcess(ctr, "app", 2)
	th2 := p.NewThread()
	th2.Regs.PC = 0xBEEF
	th2.SigMask = 0x3
	th2.Policy = simkernel.SchedPolicy{Policy: "SCHED_FIFO"}
	fd := p.OpenFD(simkernel.FDFile, "/var/log/app.log")
	fd.Offset = 4096
	p.AddTimer(30*simtime.Millisecond, 7*simtime.Millisecond)

	restored, _ := checkpointThenRestore(t, ctr, clock)
	rp := restored.Procs[0]
	if len(rp.Threads) != 2 {
		t.Fatalf("threads = %d", len(rp.Threads))
	}
	if rp.Threads[1].Regs.PC != 0xBEEF || rp.Threads[1].SigMask != 0x3 {
		t.Fatal("thread state lost")
	}
	if rp.Threads[1].Policy.Policy != "SCHED_FIFO" {
		t.Fatal("sched policy lost")
	}
	fds := rp.FDList()
	var logFD *simkernel.FD
	for _, f := range fds {
		if f.Path == "/var/log/app.log" {
			logFD = f
		}
	}
	if logFD == nil || logFD.Offset != 4096 {
		t.Fatalf("fd not restored: %+v", fds)
	}
	if len(rp.Timers) != 1 || rp.Timers[0].Remaining != 7*simtime.Millisecond {
		t.Fatal("timer not restored")
	}
}

func TestRestoreRecreatesMounts(t *testing.T) {
	ctr, clock := newTestContainer()
	addWorkProcess(ctr, "app", 2)
	ctr.Mounts.Mount(simkernel.Mount{Source: "nfs:/x", Target: "/mnt/x", FSType: "nfs"}, ctr.ID)
	restored, img := checkpointThenRestore(t, ctr, clock)
	if len(restored.Mounts.Mounts()) != len(img.Infrequent.Mounts) {
		t.Fatalf("mounts = %d, want %d", len(restored.Mounts.Mounts()), len(img.Infrequent.Mounts))
	}
	found := false
	for _, m := range restored.Mounts.Mounts() {
		if m.Target == "/mnt/x" && m.FSType == "nfs" {
			found = true
		}
	}
	if !found {
		t.Fatal("custom mount lost")
	}
}

// TestRestoreRoundTripsInfrequentState: the §II-B state a checkpoint
// carries in its infrequent-state image — a cgroup setting, a
// namespace's configuration, a mount and a device node — is back on the
// container restored on another host.
func TestRestoreRoundTripsInfrequentState(t *testing.T) {
	ctr, clock := newTestContainer()
	addWorkProcess(ctr, "app", 2)
	k := ctr.Host.Kernel
	ctr.Cgroup.SetConfig("memory.limit_in_bytes", "268435456")
	k.SetNamespaceExtra(ctr.NS.Net, ctr.ID, "eth0.mtu", "9000")
	ctr.Mounts.Mount(simkernel.Mount{Source: "nfs:/x", Target: "/mnt/x", FSType: "nfs"}, ctr.ID)
	dev := simkernel.DeviceFile{Path: "/dev/fuse", Major: 10, Minor: 229}
	ctr.Devices = append(ctr.Devices, dev)

	restored, _ := checkpointThenRestore(t, ctr, clock)
	if restored.Host == ctr.Host {
		t.Fatal("restored on the primary's own host")
	}
	if got := restored.Cgroup.Config["memory.limit_in_bytes"]; got != "268435456" {
		t.Fatalf("cgroup memory.limit_in_bytes = %q after restore", got)
	}
	if got := restored.NS.Net.Extra["eth0.mtu"]; got != "9000" {
		t.Fatalf("net namespace eth0.mtu = %q after restore", got)
	}
	if got := restored.NS.UTS.Extra["hostname"]; got != ctr.ID {
		t.Fatalf("UTS hostname = %q after restore, want %q", got, ctr.ID)
	}
	if _, ok := restored.NS.UTS.Extra["eth0.mtu"]; ok {
		t.Fatal("net namespace configuration restored into the UTS namespace")
	}
	if !slices.Contains(restored.Mounts.Mounts(), simkernel.Mount{Source: "nfs:/x", Target: "/mnt/x", FSType: "nfs"}) {
		t.Fatalf("mount /mnt/x lost: %v", restored.Mounts.Mounts())
	}
	if !slices.Contains(restored.Devices, dev) {
		t.Fatalf("device %v lost: %v", dev, restored.Devices)
	}
}

func TestRestoreLeavesSocketsInRepairAndDisconnected(t *testing.T) {
	ctr, clock := newTestContainer()
	addWorkProcess(ctr, "app", 2)
	cp := ctr.Host.Switch.Attach()
	client := simnet.NewStack(clock, "10.0.0.1", cp.Send)
	cp.SetReceiver(client.Receive)
	ctr.Host.Switch.Learn("10.0.0.1", cp)
	ctr.Stack.Listen(80, func(*simnet.Socket) {})
	client.Connect("10.0.0.5", 80, nil)
	clock.Run()

	restored, _ := checkpointThenRestore(t, ctr, clock)
	if restored.Port.Enabled() {
		t.Fatal("restored container connected to bridge before network restore finished")
	}
	socks := restored.Stack.Sockets()
	if len(socks) != 1 {
		t.Fatalf("restored sockets = %d", len(socks))
	}
	if !socks[0].InRepair() {
		t.Fatal("restored socket not in repair mode")
	}
	if !slices.Contains(restored.Stack.ListenPortList(), 80) {
		t.Fatal("listener not restored")
	}
}

func TestFinishNetworkRestoreOrdering(t *testing.T) {
	// After FinishNetworkRestore: port enabled, ARP rebound, sockets out
	// of repair — and no RSTs were generated at any point.
	ctr, clock := newTestContainer()
	addWorkProcess(ctr, "app", 2)
	cp := ctr.Host.Switch.Attach()
	client := simnet.NewStack(clock, "10.0.0.1", cp.Send)
	cp.SetReceiver(client.Receive)
	ctr.Host.Switch.Learn("10.0.0.1", cp)
	ctr.Stack.Listen(80, func(*simnet.Socket) {})
	var cl *simnet.Socket
	client.Connect("10.0.0.5", 80, func(s *simnet.Socket) { cl = s })
	clock.Run()

	restored, _ := checkpointThenRestore(t, ctr, clock)
	// Primary dies.
	ctr.Stop()
	ctr.Disconnect()

	done := false
	FinishNetworkRestore(restored, true, func() { done = true })
	// Client keeps talking to the service IP during recovery.
	cl.Send([]byte("mid-recovery"))
	clock.Run()

	if !done {
		t.Fatal("network restore never completed")
	}
	if ctr.Host.Switch.Lookup("10.0.0.5") != restored.Port {
		t.Fatal("ARP not rebound to backup")
	}
	for _, s := range restored.Stack.Sockets() {
		if s.InRepair() {
			t.Fatal("socket still in repair after network restore")
		}
	}
	if restored.Stack.RSTsSent() != 0 {
		t.Fatal("backup sent RST during recovery")
	}
	if cl.Reset {
		t.Fatal("client connection broke during recovery")
	}
	// The mid-recovery data must have arrived after restore.
	if got := restored.Stack.Sockets()[0].ReadAll(); string(got) != "mid-recovery" {
		t.Fatalf("server read queue = %q", got)
	}
}

func TestRestoreChargesMeter(t *testing.T) {
	ctr, clock := newTestContainer()
	addWorkProcess(ctr, "app", 100)
	e := NewEngine(ctr, allOptions)
	defer e.Close()
	img, _ := e.Checkpoint()
	backup := container.NewHost("backup", clock, ctr.Host.Switch)
	m := backup.Kernel.StartMeter()
	_, err := Restore(backup, img, backup.Disk)
	cost := m.Stop()
	if err != nil {
		t.Fatal(err)
	}
	min := backup.Kernel.Costs.RestoreBase
	if cost <= min {
		t.Fatalf("restore cost = %v, must exceed base %v (pages, fds...)", cost, min)
	}
}

func TestRestoreFsCacheContent(t *testing.T) {
	ctr, clock := newTestContainer()
	addWorkProcess(ctr, "app", 2)
	f := ctr.FS.Create("/data/kv")
	_ = ctr.FS.WriteAt(f, 0, []byte("k1=v1"))
	restored, _ := checkpointThenRestore(t, ctr, clock)
	rf := restored.FS.Open("/data/kv")
	if rf == nil {
		t.Fatal("file missing after restore")
	}
	got, _ := restored.FS.ReadAt(rf, 0, 5)
	if !bytes.Equal(got, []byte("k1=v1")) {
		t.Fatalf("fs content = %q", got)
	}
}

func TestRestoredContainerRunsTasks(t *testing.T) {
	ctr, clock := newTestContainer()
	addWorkProcess(ctr, "app", 2)
	restored, _ := checkpointThenRestore(t, ctr, clock)
	// Reattach a workload task to the restored process.
	steps := 0
	restored.AddTask(restored.Procs[0].MainThread(), func() (simtime.Duration, simtime.Duration) {
		steps++
		return simtime.Millisecond, simtime.Millisecond
	})
	clock.RunFor(10 * simtime.Millisecond)
	if steps < 5 {
		t.Fatalf("restored container ran %d steps", steps)
	}
}

// TestMisorderedRecoveryBreaksConnections demonstrates why §III requires
// blocking input until sockets are restored: if the network namespace is
// reconnected (and ARP rebound) while a connection's socket is not yet
// restored, an arriving packet draws an RST from the kernel and the
// client connection dies. NiLiCon's FinishNetworkRestore ordering (used
// by TestFinishNetworkRestoreOrdering) avoids exactly this.
func TestMisorderedRecoveryBreaksConnections(t *testing.T) {
	ctr, clock := newTestContainer()
	addWorkProcess(ctr, "app", 2)
	cp := ctr.Host.Switch.Attach()
	client := simnet.NewStack(clock, "10.0.0.1", cp.Send)
	cp.SetReceiver(client.Receive)
	ctr.Host.Switch.Learn("10.0.0.1", cp)
	ctr.Stack.Listen(80, func(*simnet.Socket) {})
	var cl *simnet.Socket
	client.Connect("10.0.0.5", 80, func(s *simnet.Socket) { cl = s })
	clock.Run()

	e := NewEngine(ctr, allOptions)
	defer e.Close()
	img, _ := e.Checkpoint()
	backup := container.NewHost("backup", clock, ctr.Host.Switch)
	restored, err := Restore(backup, img, backup.Disk)
	if err != nil {
		t.Fatal(err)
	}
	ctr.Stop()
	ctr.Disconnect()

	// WRONG ordering: drop the restored socket state, reconnect first.
	for _, s := range restored.Stack.Sockets() {
		_ = s
	}
	// Simulate "socket not yet restored" by restoring into a stack that
	// lost the connection entry: rebuild the container's stack fresh.
	restored.Stack.Unlisten(80)
	freshStack := simnet.NewStack(clock, restored.IP, restored.Qdisc.Egress)
	restored.Qdisc.SetInput(freshStack.Receive)
	restored.Reconnect()
	restored.Host.Switch.GratuitousARP(restored.IP, restored.Port, nil)
	clock.RunFor(40 * simtime.Millisecond)

	// Client data now arrives at a namespace with no matching socket.
	cl.Send([]byte("hello?"))
	clock.RunFor(500 * simtime.Millisecond)
	if !cl.Reset {
		t.Fatal("expected the client connection to break under misordered recovery")
	}
	if freshStack.RSTsSent() == 0 {
		t.Fatal("expected an RST from the socket-less namespace")
	}
}

// TestRestoreOfStampFramesKeepsThemIntact: pages only Touch wrote are
// captured, stored and restored as stamp frames. Writing a restored page
// gives the container a private copy and re-stamping the others swaps
// in other stamp frames; the arena and the backup's store keep their
// content.
func TestRestoreOfStampFramesKeepsThemIntact(t *testing.T) {
	const pages = 8
	ctr, clock := newTestContainer()
	_, v := addWorkProcess(ctr, "app", pages)
	e := NewEngine(ctr, allOptions)
	defer e.Close()
	img, _ := e.Checkpoint()
	store := NewPageStore(true)
	for _, pg := range img.Procs[0].Pages {
		if !simkernel.IsStampPage(pg.Data) || pg.Data[0] != 1 {
			t.Fatalf("page %#x was not captured as stamp frame 1", pg.PN)
		}
		store.PutOwned(PageKey(0, pg.PN), pg.Data)
	}
	backup := container.NewHost("backup", clock, ctr.Host.Switch)
	restored, err := Restore(backup, img, backup.Disk)
	if err != nil {
		t.Fatal(err)
	}
	rm := restored.Procs[0].Mem
	if err := rm.Write(v.Start+10, []byte("after-restore")); err != nil {
		t.Fatal(err)
	}
	if err := rm.Touch(rm.FindVMA(v.Start), 1, pages-1, 7); err != nil {
		t.Fatal(err)
	}
	if got, _ := rm.Read(v.Start, 23); got[0] != 1 || string(got[10:]) != "after-restore" {
		t.Fatalf("restored page 0 reads %q", got)
	}
	if got := rm.PageData(v.Start/simkernel.PageSize + 1); got[0] != 7 {
		t.Fatalf("restored page 1 stamp = %d, want 7", got[0])
	}
	zero := make([]byte, simkernel.PageSize)
	for s := 0; s < 256; s++ {
		if f := simkernel.StampPage(byte(s)); f[0] != byte(s) || !bytes.Equal(f[1:], zero[1:]) {
			t.Fatalf("stamp frame %d was written", s)
		}
	}
	for i := uint64(0); i < pages; i++ {
		pn := v.Start/simkernel.PageSize + i
		if got := store.Get(PageKey(0, pn)); &got[0] != &simkernel.StampPage(1)[0] {
			t.Fatalf("stored page %#x is no longer stamp frame 1", pn)
		}
	}
}
