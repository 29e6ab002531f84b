package criu

import (
	"testing"

	"nilicon/internal/container"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// BenchmarkVMACollection compares the §V-D smaps vs netlink VMA paths:
// wall time of the engine plus the modeled virtual cost per call.
func BenchmarkVMACollection(b *testing.B) {
	for _, mode := range []struct {
		name    string
		netlink bool
	}{{"smaps", false}, {"netlink", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ctr, _ := newTestContainer()
			addWorkProcess(ctr, "bench", 20000)
			opts := allOptions
			opts.NetlinkVMA = mode.netlink
			e := NewEngine(ctr, opts)
			defer e.Close()
			var virtual simtime.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats := e.Checkpoint()
				ctr.Thaw()
				virtual += stats.VMACollect
			}
			b.ReportMetric(float64(virtual.Microseconds())/float64(b.N), "virtual-µs/op")
		})
	}
}

// BenchmarkCheckpointFull measures a full checkpoint of a redis-sized
// container, 26,000 resident pages, as an isolated primary takes one
// every epoch. The pages are lent, not copied, so B/op is the image's
// page list and bookkeeping, far below the 106 MB of resident memory.
func BenchmarkCheckpointFull(b *testing.B) {
	ctr, _ := newTestContainer()
	addWorkProcess(ctr, "bench", 26000)
	e := NewEngine(ctr, allOptions)
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ForceFull()
		img, _ := e.Checkpoint()
		ctr.Thaw()
		if !img.Full || img.DirtyPages() < 26000 {
			b.Fatalf("full=%v with %d pages", img.Full, img.DirtyPages())
		}
	}
}

// BenchmarkPageTransfer compares the pipe vs shared-memory page copy
// paths (§V-D) on a 5000-dirty-page checkpoint.
func BenchmarkPageTransfer(b *testing.B) {
	for _, mode := range []struct {
		name   string
		shared bool
	}{{"pipe", false}, {"sharedmem", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ctr, _ := newTestContainer()
			p, v := addWorkProcess(ctr, "bench", 10000)
			opts := allOptions
			opts.SharedMemPages = mode.shared
			e := NewEngine(ctr, opts)
			defer e.Close()
			_, _ = e.Checkpoint()
			ctr.Thaw()
			var virtual simtime.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = p.Mem.Touch(v, 0, 5000, byte(i))
				_, stats := e.Checkpoint()
				ctr.Thaw()
				virtual += stats.MemCopy
			}
			b.ReportMetric(float64(virtual.Microseconds())/float64(b.N), "virtual-µs/op")
		})
	}
}

// BenchmarkIncrementalCheckpoint measures the engine's real cost per
// incremental checkpoint at a Redis-like dirty rate.
func BenchmarkIncrementalCheckpoint(b *testing.B) {
	ctr, _ := newTestContainer()
	p, v := addWorkProcess(ctr, "bench", 26000)
	e := NewEngine(ctr, allOptions)
	defer e.Close()
	_, _ = e.Checkpoint()
	ctr.Thaw()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Mem.Touch(v, (i*317)%20000, 5000, byte(i))
		img, _ := e.Checkpoint()
		ctr.Thaw()
		if img.DirtyPages() == 0 {
			b.Fatal("no dirty pages")
		}
	}
}

// BenchmarkRestore measures restore cost for a 100 MB-class image
// (the Table II Redis restore path).
func BenchmarkRestore(b *testing.B) {
	ctr, clock := newTestContainer()
	addWorkProcess(ctr, "bench", 25000)
	e := NewEngine(ctr, allOptions)
	defer e.Close()
	img, _ := e.Checkpoint()
	ctr.Thaw()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		backup := newBenchHost(clock)
		m := backup.Kernel.StartMeter()
		if _, err := Restore(backup, img, backup.Disk); err != nil {
			b.Fatal(err)
		}
		virtual := m.Stop()
		b.ReportMetric(float64(virtual.Milliseconds()), "virtual-restore-ms")
	}
}

// BenchmarkDeltaEncode measures the delta encoder's real per-image cost
// at a streamcluster-like dirty set (256 lightly-touched pages per
// epoch), with allocation tracking: steady-state encoding copies no
// pages, because its bases are the images' lent buffers.
func BenchmarkDeltaEncode(b *testing.B) {
	const pages = 256
	// The images lend these buffers, as a checkpoint lends the
	// container's frames, and the encoder keeps them as its bases. A
	// lent buffer is never written while held, so two sets alternate, as
	// a container's copy-on-write would: when an epoch rewrites a set,
	// the encoder has already replaced every base it held there.
	var frames [2][pages][]byte
	for s := range frames {
		set := &frames[s]
		for p := range set {
			set[p] = make([]byte, simkernel.PageSize)
			for j := range set[p] {
				set[p][j] = byte(p)*3 + 1
			}
		}
	}
	mkimg := func(epoch uint64, full bool, seed byte) *Image {
		ps := make([]PageImage, pages)
		set := &frames[epoch%2]
		for p := range ps {
			set[p][0] = seed // one-byte churn per epoch → delta frames
			ps[p] = PageImage{PN: uint64(p), Data: set[p]}
		}
		return &Image{Epoch: epoch, Full: full, Procs: []ProcessImage{{PID: 1, Pages: ps}}}
	}
	enc := NewDeltaEncoder()
	enc.EncodeImage(mkimg(0, true, 0), 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch := uint64(i + 1)
		img := mkimg(epoch, false, byte(i)+1)
		st := enc.EncodeImage(img, epoch-1, true)
		if st.DeltaFrames == 0 {
			b.Fatal("no delta frames")
		}
		var wire int64
		for _, f := range img.Procs[0].Frames {
			wire += f.WireBytes()
		}
		b.ReportMetric(float64(wire)/pages, "wire-B/page")
	}
}

func newBenchHost(clock *simtime.Clock) *container.Host {
	sw := simnet.NewSwitch(clock, 100*simtime.Microsecond, 28*simtime.Millisecond)
	return container.NewHost("bench-backup", clock, sw)
}

var _ = simkernel.PageSize
