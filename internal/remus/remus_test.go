package remus

import (
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

type vmEnv struct {
	clock *simtime.Clock
	cl    *core.Cluster
	ctr   *coreContainer
	mc    *MC
}

type coreContainer = containerAlias

func TestMCEpochsAndDirtyTracking(t *testing.T) {
	sc := simtime.NewEngine()
	clock := sc.Root()
	cl := core.NewShardedCluster(sc, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("vm", "10.0.0.20", 4)
	p := ctr.AddProcess("guest", 2)
	v := p.Mem.Mmap(1000*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", p.PID, ctr.ID)
	_ = p.Mem.Touch(v, 0, 1000, 1)
	seq := byte(0)
	ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
		seq++
		_ = p.Mem.Touch(v, 0, 200, seq)
		return simtime.Millisecond, 10 * simtime.Millisecond
	})
	mc := New(cl, ctr, Config{KernelDirtyPages: 150})
	mc.Start()
	clock.RunUntil(simtime.Time(simtime.Second))
	mc.Stop()

	if mc.Epochs() < 20 {
		t.Fatalf("epochs = %d", mc.Epochs())
	}
	// Per epoch: ~200 user pages + 150 kernel pages.
	mean := mc.DirtyPages.Mean()
	if mean < 300 || mean > 420 {
		t.Fatalf("mean dirty pages = %.0f, want ≈350", mean)
	}
	// Stop time ≈ 2.2ms + 350×1.15µs ≈ 2.6ms.
	if s := mc.StopTimes.Mean(); s < 0.002 || s > 0.004 {
		t.Fatalf("mean stop = %.2fms, want ≈2.6ms", s*1000)
	}
}

func TestMCRuntimeOverheadFromVMExits(t *testing.T) {
	sc := simtime.NewEngine()
	clock := sc.Root()
	cl := core.NewShardedCluster(sc, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("vm", "10.0.0.20", 1)
	p := ctr.AddProcess("guest", 0)
	v := p.Mem.Mmap(500*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", p.PID, ctr.ID)
	_ = p.Mem.Touch(v, 0, 500, 1)
	p.Mem.ConsumeTrackingOverhead()
	seq := byte(0)
	ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
		seq++
		_ = p.Mem.Touch(v, 0, 100, seq)
		return simtime.Millisecond, 10 * simtime.Millisecond
	})
	mc := New(cl, ctr, Config{})
	mc.Start()
	clock.RunUntil(simtime.Time(simtime.Second))
	mc.Stop()
	if ctr.RuntimeOverhead <= 0 {
		t.Fatal("no VM-exit runtime overhead accumulated")
	}
	// ~100 VM exits per epoch × 33 epochs × 2.6µs ≈ 8.6ms.
	k := ctr.Host.Kernel
	perEpoch := 100 * k.Costs.VMExit
	if ctr.RuntimeOverhead < 20*perEpoch {
		t.Fatalf("runtime overhead = %v, want ≈33 epochs worth (%v each)", ctr.RuntimeOverhead, perEpoch)
	}
}

func TestMCOutputCommit(t *testing.T) {
	sc := simtime.NewEngine()
	clock := sc.Root()
	cl := core.NewShardedCluster(sc, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("vm", "10.0.0.20", 1)
	ctr.AddProcess("guest", 0)
	ctr.Stack.Listen(7, func(s *simnet.Socket) {
		s.OnData = func(s *simnet.Socket) { s.Send(s.ReadAll()) }
	})
	mc := New(cl, ctr, Config{})
	mc.Start()
	clock.RunFor(200 * simtime.Millisecond)

	var got []byte
	var sentAt, gotAt simtime.Time
	client := cl.NewClient("10.0.0.1")
	client.Connect("10.0.0.20", 7, func(s *simnet.Socket) {
		s.OnData = func(s *simnet.Socket) {
			got = append(got, s.ReadAll()...)
			gotAt = clock.Now()
		}
		sentAt = clock.Now()
		s.Send([]byte("echo"))
	})
	clock.RunFor(500 * simtime.Millisecond)
	mc.Stop()
	if string(got) != "echo" {
		t.Fatalf("reply = %q", got)
	}
	// The echo must have been held until an epoch commit: ≥ a few ms.
	if lat := gotAt.Sub(sentAt); lat < 2*simtime.Millisecond {
		t.Fatalf("reply latency %v too low for output commit", lat)
	}
}

func TestMCStopShorterThanNiLiConButMoreRuntime(t *testing.T) {
	// The qualitative Table III / Figure 3 relationship on one workload:
	// identical container+load under MC vs NiLiCon.
	build := func() (*simtime.Clock, *core.Cluster, *containerAlias, func()) {
		sc := simtime.NewEngine()
		clock := sc.Root()
		cl := core.NewShardedCluster(sc, core.ClusterParams{})
		ctr := cl.NewProtectedContainer("x", "10.0.0.20", 4)
		p := ctr.AddProcess("app", 2)
		v := p.Mem.Mmap(5000*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", p.PID, ctr.ID)
		_ = p.Mem.Touch(v, 0, 5000, 1)
		seq := byte(0)
		run := func() {
			ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
				seq++
				_ = p.Mem.Touch(v, int(seq)%1000, 300, seq)
				return simtime.Millisecond, 3 * simtime.Millisecond
			})
		}
		return clock, cl, ctr, run
	}

	clock1, cl1, ctr1, run1 := build()
	run1()
	mc := New(cl1, ctr1, Config{KernelDirtyPages: 160})
	mc.Start()
	clock1.RunUntil(simtime.Time(2 * simtime.Second))
	mc.Stop()

	clock2, cl2, ctr2, run2 := build()
	run2()
	repl := core.NewReplicator(cl2, ctr2, core.DefaultConfig())
	repl.Start()
	clock2.RunUntil(simtime.Time(2 * simtime.Second))
	repl.Stop()

	if mc.StopTimes.Mean() >= repl.StopTimes.Mean() {
		t.Fatalf("MC stop (%.2fms) should be below NiLiCon stop (%.2fms): no in-kernel state collection",
			mc.StopTimes.Mean()*1000, repl.StopTimes.Mean()*1000)
	}
	if ctr1.RuntimeOverhead <= ctr2.RuntimeOverhead {
		t.Fatalf("MC runtime overhead (%v) should exceed NiLiCon's (%v): VM exits vs soft-dirty",
			ctr1.RuntimeOverhead, ctr2.RuntimeOverhead)
	}
}
