package criu

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"nilicon/internal/container"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

func newTestContainer() (*container.Container, *simtime.Clock) {
	c := simtime.NewClock()
	sw := simnet.NewSwitch(c, 100*simtime.Microsecond, 28*simtime.Millisecond)
	h := container.NewHost("prim", c, sw)
	ctr := container.Create(h, container.Spec{ID: "c1", IP: "10.0.0.5", Cores: 4})
	return ctr, c
}

// addWorkProcess creates a process with a data VMA and touches n pages.
func addWorkProcess(ctr *container.Container, name string, pages int) (*simkernel.Process, *simkernel.VMA) {
	p := ctr.AddProcess(name, 2)
	v := p.Mem.Mmap(uint64(pages*2)*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", p.PID, ctr.ID)
	_ = p.Mem.Touch(v, 0, pages, 1)
	return p, v
}

func TestFirstCheckpointIsFull(t *testing.T) {
	ctr, _ := newTestContainer()
	_, _ = addWorkProcess(ctr, "app", 10)
	e := NewEngine(ctr, NiLiConOptions())
	defer e.Close()
	img, stats := e.Checkpoint()
	if !img.Full {
		t.Fatal("first checkpoint not full")
	}
	// 10 data pages + lib file pages are not resident (never touched), so
	// exactly 10 pages plus whatever the process faulted.
	if stats.DirtyPages < 10 {
		t.Fatalf("dirty pages = %d", stats.DirtyPages)
	}
	if !ctr.Frozen() {
		t.Fatal("container must be left frozen")
	}
	ctr.Thaw()
}

func TestIncrementalCheckpointOnlyDirtyPages(t *testing.T) {
	ctr, _ := newTestContainer()
	p, v := addWorkProcess(ctr, "app", 100)
	e := NewEngine(ctr, NiLiConOptions())
	defer e.Close()
	_, _ = e.Checkpoint()
	ctr.Thaw()
	// Dirty exactly 7 pages.
	_ = p.Mem.Touch(v, 3, 7, 2)
	img, stats := e.Checkpoint()
	ctr.Thaw()
	if img.Full {
		t.Fatal("second checkpoint should be incremental")
	}
	if stats.DirtyPages != 7 {
		t.Fatalf("dirty pages = %d, want 7", stats.DirtyPages)
	}
	if img.Epoch != 1 {
		t.Fatalf("epoch = %d", img.Epoch)
	}
}

func TestCheckpointCapturesPageContent(t *testing.T) {
	ctr, _ := newTestContainer()
	p, v := addWorkProcess(ctr, "app", 4)
	_ = p.Mem.Write(v.Start, []byte("precious-bytes"))
	e := NewEngine(ctr, NiLiConOptions())
	defer e.Close()
	img, _ := e.Checkpoint()
	ctr.Thaw()
	var found bool
	for _, pg := range img.Procs[0].Pages {
		if pg.PN == v.Start/simkernel.PageSize {
			if !bytes.HasPrefix(pg.Data, []byte("precious-bytes")) {
				t.Fatalf("page content = %q", pg.Data[:16])
			}
			found = true
		}
	}
	if !found {
		t.Fatal("written page not in image")
	}
}

// pageBytes returns a copy of every page an image holds, by page number.
func pageBytes(img *Image) map[uint64][]byte {
	out := make(map[uint64][]byte)
	for _, pg := range img.Procs[0].Pages {
		out[pg.PN] = bytes.Clone(pg.Data)
	}
	return out
}

// TestImagesKeepCaptureTimeBytes: a checkpoint lends the container's
// frames instead of copying them, so every image — the full one and
// each incremental one — must keep the bytes it captured while the
// container goes on writing the same pages, through Write and Touch.
func TestImagesKeepCaptureTimeBytes(t *testing.T) {
	const pages = 32
	ctr, _ := newTestContainer()
	p, v := addWorkProcess(ctr, "app", pages)
	e := NewEngine(ctr, NiLiConOptions())
	defer e.Close()
	var imgs []*Image
	var want []map[uint64][]byte
	for round := 0; round < 4; round++ {
		img, _ := e.Checkpoint()
		ctr.Thaw()
		if img.Full != (round == 0) {
			t.Fatalf("round %d: full=%v", round, img.Full)
		}
		imgs, want = append(imgs, img), append(want, pageBytes(img))
		// Rewrite every page the images hold, and a few more.
		if err := p.Mem.Touch(v, 0, pages+round, byte(10+round)); err != nil {
			t.Fatal(err)
		}
		if err := p.Mem.Write(v.Start+7, []byte(fmt.Sprintf("round-%d", round))); err != nil {
			t.Fatal(err)
		}
	}
	for i, img := range imgs {
		if len(want[i]) < pages {
			t.Fatalf("image %d holds %d pages, want >= %d", i, len(want[i]), pages)
		}
		for _, pg := range img.Procs[0].Pages {
			if !bytes.Equal(pg.Data, want[i][pg.PN]) {
				t.Fatalf("image %d (full=%v): page %#x changed after capture", i, img.Full, pg.PN)
			}
		}
	}
	if got, _ := p.Mem.Read(v.Start, 14); got[0] != 13 || string(got[7:]) != "round-3" {
		t.Fatalf("live memory = %q, want the last round's writes", got)
	}
}

// TestLostImageReleaseKeepsMemoryIntact: a lost image's pages are lent
// frames, so releasing it must not hand them to the page pool — the
// next copies drawn from the pool would overwrite the container's
// memory.
func TestLostImageReleaseKeepsMemoryIntact(t *testing.T) {
	const pages = 64
	ctr, _ := newTestContainer()
	p, v := addWorkProcess(ctr, "app", pages)
	for i := 0; i < pages; i++ {
		if err := p.Mem.Write(v.Start+uint64(i)*simkernel.PageSize, []byte(fmt.Sprintf("page-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(ctr, NiLiConOptions())
	defer e.Close()
	img, _ := e.Checkpoint()
	ctr.Thaw()
	img.ReleaseLost()
	// Pool churn: draw more buffers than the image held and fill them.
	junk := bytes.Repeat([]byte{0xDB}, simkernel.PageSize)
	var held [][]byte
	for i := 0; i < 4*pages; i++ {
		held = append(held, simkernel.CopyPage(junk))
	}
	for i := 0; i < pages; i++ {
		want := fmt.Sprintf("page-%d", i)
		got, err := p.Mem.Read(v.Start+uint64(i)*simkernel.PageSize, len(want))
		if err != nil || string(got) != want {
			t.Fatalf("page %d reads %q after a lost image's release and pool churn, want %q", i, got, want)
		}
	}
	runtime.KeepAlive(held)
}

func TestFreezePollVsSleepWait(t *testing.T) {
	mk := func(poll bool) simtime.Duration {
		ctr, _ := newTestContainer()
		addWorkProcess(ctr, "app", 4)
		opts := NiLiConOptions()
		opts.FreezePoll = poll
		e := NewEngine(ctr, opts)
		defer e.Close()
		_, stats := e.Checkpoint()
		ctr.Thaw()
		return stats.FreezeWait
	}
	pollWait := mk(true)
	sleepWait := mk(false)
	if pollWait >= simtime.Millisecond {
		t.Fatalf("poll wait = %v, paper says <1ms", pollWait)
	}
	if sleepWait < 100*simtime.Millisecond {
		t.Fatalf("sleep wait = %v, stock CRIU sleeps 100ms", sleepWait)
	}
}

func TestNetlinkVsSmapsCollectCost(t *testing.T) {
	mk := func(netlink bool) simtime.Duration {
		ctr, _ := newTestContainer()
		addWorkProcess(ctr, "app", 2000)
		opts := NiLiConOptions()
		opts.NetlinkVMA = netlink
		e := NewEngine(ctr, opts)
		defer e.Close()
		_, stats := e.Checkpoint()
		ctr.Thaw()
		return stats.VMACollect
	}
	fast := mk(true)
	slow := mk(false)
	if fast*5 >= slow {
		t.Fatalf("netlink (%v) should be ≫ faster than smaps (%v)", fast, slow)
	}
}

func TestSharedMemVsPipePageCopy(t *testing.T) {
	mk := func(shared bool) simtime.Duration {
		ctr, _ := newTestContainer()
		addWorkProcess(ctr, "app", 2000)
		opts := NiLiConOptions()
		opts.SharedMemPages = shared
		e := NewEngine(ctr, opts)
		defer e.Close()
		_, stats := e.Checkpoint()
		ctr.Thaw()
		return stats.MemCopy
	}
	fast := mk(true)
	slow := mk(false)
	if fast >= slow {
		t.Fatalf("shared-memory copy (%v) should beat pipe (%v)", fast, slow)
	}
}

func TestInfrequentStateCacheHitAndInvalidation(t *testing.T) {
	ctr, _ := newTestContainer()
	addWorkProcess(ctr, "app", 4)
	e := NewEngine(ctr, NiLiConOptions())
	defer e.Close()

	_, s1 := e.Checkpoint()
	ctr.Thaw()
	if s1.InfrequentCollect < 100*simtime.Millisecond {
		t.Fatalf("first collection = %v, should pay full ≈160ms cost", s1.InfrequentCollect)
	}

	img2, s2 := e.Checkpoint()
	ctr.Thaw()
	if !img2.InfrequentCached {
		t.Fatal("second checkpoint should hit the cache")
	}
	if s2.InfrequentCollect > simtime.Millisecond {
		t.Fatalf("cache hit cost = %v", s2.InfrequentCollect)
	}

	// Mutate a mount → tracker dirties → next checkpoint re-collects.
	ctr.Mounts.Mount(simkernel.Mount{Source: "tmpfs", Target: "/scratch", FSType: "tmpfs"}, 0, ctr.ID)
	img3, s3 := e.Checkpoint()
	ctr.Thaw()
	if img3.InfrequentCached {
		t.Fatal("mount change did not invalidate the cache")
	}
	if s3.InfrequentCollect < 100*simtime.Millisecond {
		t.Fatalf("re-collection cost = %v", s3.InfrequentCollect)
	}
	found := false
	for _, m := range img3.Infrequent.Mounts {
		if m.Target == "/scratch" {
			found = true
		}
	}
	if !found {
		t.Fatal("new mount missing from re-collected state")
	}
}

func TestTrackerIgnoresOtherContainers(t *testing.T) {
	ctr, _ := newTestContainer()
	addWorkProcess(ctr, "app", 4)
	e := NewEngine(ctr, NiLiConOptions())
	defer e.Close()
	_, _ = e.Checkpoint()
	ctr.Thaw()

	// A different container on the same host mutates its own mounts.
	other := container.Create(ctr.Host, container.Spec{ID: "other", IP: "10.0.0.99"})
	other.Mounts.Mount(simkernel.Mount{Source: "x", Target: "/x", FSType: "tmpfs"}, 0, "other")

	img, _ := e.Checkpoint()
	ctr.Thaw()
	if !img.InfrequentCached {
		t.Fatal("other container's mutation invalidated our cache")
	}
}

func TestCheckpointIncludesSockets(t *testing.T) {
	ctr, clock := newTestContainer()
	addWorkProcess(ctr, "app", 4)
	// A client connects and sends unread data.
	cp := ctr.Host.Switch.Attach("client")
	client := simnet.NewStack(clock, "10.0.0.1", cp.Send)
	cp.SetReceiver(client.Receive)
	ctr.Host.Switch.Learn("10.0.0.1", cp)
	ctr.Stack.Listen(80, func(s *simnet.Socket) {})
	client.Connect("10.0.0.5", 80, func(s *simnet.Socket) { s.Send([]byte("pending-req")) })
	clock.Run()

	e := NewEngine(ctr, NiLiConOptions())
	defer e.Close()
	img, stats := e.Checkpoint()
	ctr.Thaw()
	if len(img.Sockets) != 1 {
		t.Fatalf("sockets = %d", len(img.Sockets))
	}
	if string(img.Sockets[0].ReadQueue) != "pending-req" {
		t.Fatalf("read queue = %q", img.Sockets[0].ReadQueue)
	}
	if len(img.Listeners) != 1 || img.Listeners[0] != 80 {
		t.Fatalf("listeners = %v", img.Listeners)
	}
	if stats.SocketCollect < ctr.Host.Kernel.Costs.SockRepairPerSocket {
		t.Fatalf("socket collect cost = %v", stats.SocketCollect)
	}
}

func TestCheckpointIncludesFsCache(t *testing.T) {
	ctr, _ := newTestContainer()
	addWorkProcess(ctr, "app", 4)
	f := ctr.FS.Create("/data/db")
	_ = ctr.FS.WriteAt(f, 0, []byte("durable"))
	e := NewEngine(ctr, NiLiConOptions())
	defer e.Close()
	img, _ := e.Checkpoint()
	ctr.Thaw()
	if len(img.FSCache.Pages) != 1 {
		t.Fatalf("fs cache pages = %d", len(img.FSCache.Pages))
	}
	// Next checkpoint: nothing new.
	img2, _ := e.Checkpoint()
	ctr.Thaw()
	if len(img2.FSCache.Pages) != 0 {
		t.Fatal("unchanged fs cache re-checkpointed")
	}
}

func TestStockFlushesInsteadOfDNC(t *testing.T) {
	ctr, _ := newTestContainer()
	addWorkProcess(ctr, "app", 4)
	f := ctr.FS.Create("/data/db")
	_ = ctr.FS.WriteAt(f, 0, []byte("x"))
	e := NewEngine(ctr, StockOptions())
	defer e.Close()
	img, _ := e.Checkpoint()
	ctr.Thaw()
	if len(img.FSCache.Pages) != 0 {
		t.Fatal("stock mode should flush, not checkpoint, the fs cache")
	}
	if ctr.FS.DirtyPages() != 0 {
		t.Fatal("stock flush left dirty pages")
	}
	if ctr.Host.Disk.Writes() == 0 {
		t.Fatal("flush never reached the disk")
	}
}

func TestCheckpointStatsBreakdownSums(t *testing.T) {
	ctr, _ := newTestContainer()
	addWorkProcess(ctr, "app", 50)
	e := NewEngine(ctr, NiLiConOptions())
	defer e.Close()
	_, stats := e.Checkpoint()
	ctr.Thaw()
	sum := stats.MemCopy + stats.SocketCollect + stats.ThreadCollect + stats.VMACollect + stats.InfrequentCollect
	if sum > stats.Collect {
		t.Fatalf("component sum %v exceeds total collect %v", sum, stats.Collect)
	}
	if stats.StopTime() != stats.FreezeWait+stats.Collect {
		t.Fatal("StopTime mismatch")
	}
	if stats.StateBytes <= 0 {
		t.Fatal("no state bytes accounted")
	}
}

func TestAppStateSnapshotted(t *testing.T) {
	ctr, _ := newTestContainer()
	addWorkProcess(ctr, "app", 2)
	ctr.App = testApp{val: "hello"}
	e := NewEngine(ctr, NiLiConOptions())
	defer e.Close()
	img, _ := e.Checkpoint()
	ctr.Thaw()
	if img.AppState.(string) != "hello" {
		t.Fatalf("app state = %v", img.AppState)
	}
}

type testApp struct{ val string }

func (a testApp) SnapshotState() any { return a.val }
func (a testApp) RestoreState(s any) {}
