package remus

import (
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/trace"
)

type vmEnv struct {
	clock *simtime.Clock
	cl    *core.Cluster
	ctr   *coreContainer
	mc    *MC
}

type coreContainer = containerAlias

// meanOf is the mean of f over tl's records (0 for none).
func meanOf(tl *trace.Timeline, f func(trace.EpochRecord) float64) float64 {
	if tl.Len() == 0 {
		return 0
	}
	var sum float64
	for _, rec := range tl.Records() {
		sum += f(rec)
	}
	return sum / float64(tl.Len())
}

// stopSeconds is a record's stop time in seconds.
func stopSeconds(rec trace.EpochRecord) float64 { return rec.Stop.Seconds() }

func TestMCEpochsAndDirtyTracking(t *testing.T) {
	clock := simtime.NewClock()
	cl := core.NewShardedCluster(clock, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("vm", "10.0.0.20", 4)
	p := ctr.AddProcess("guest", 2)
	v := p.Mem.Mmap(1000*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", ctr.ID)
	_ = p.Mem.Touch(v, 0, 1000, 1)
	seq := byte(0)
	ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
		seq++
		_ = p.Mem.Touch(v, 0, 200, seq)
		return simtime.Millisecond, 10 * simtime.Millisecond
	})
	mc := New(cl, ctr, Config{KernelDirtyPages: 150})
	mc.Timeline = &trace.Timeline{}
	mc.Start()
	clock.RunUntil(simtime.Time(simtime.Second))
	mc.Stop()

	if mc.Epochs() < 20 {
		t.Fatalf("epochs = %d", mc.Epochs())
	}
	// Per epoch: ~200 user pages + 150 kernel pages.
	mean := meanOf(mc.Timeline, func(rec trace.EpochRecord) float64 { return float64(rec.DirtyPages) })
	if mean < 300 || mean > 420 {
		t.Fatalf("mean dirty pages = %.0f, want ≈350", mean)
	}
	// Stop time ≈ 2.2ms + 350×1.15µs ≈ 2.6ms.
	if s := meanOf(mc.Timeline, stopSeconds); s < 0.002 || s > 0.004 {
		t.Fatalf("mean stop = %.2fms, want ≈2.6ms", s*1000)
	}
}

func TestMCRuntimeOverheadFromVMExits(t *testing.T) {
	clock := simtime.NewClock()
	cl := core.NewShardedCluster(clock, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("vm", "10.0.0.20", 1)
	p := ctr.AddProcess("guest", 0)
	v := p.Mem.Mmap(500*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", ctr.ID)
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
	clock := simtime.NewClock()
	cl := core.NewShardedCluster(clock, core.ClusterParams{})
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
		clock := simtime.NewClock()
		cl := core.NewShardedCluster(clock, core.ClusterParams{})
		ctr := cl.NewProtectedContainer("x", "10.0.0.20", 4)
		p := ctr.AddProcess("app", 2)
		v := p.Mem.Mmap(5000*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", ctr.ID)
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
	mc.Timeline = &trace.Timeline{}
	mc.Start()
	clock1.RunUntil(simtime.Time(2 * simtime.Second))
	mc.Stop()

	clock2, cl2, ctr2, run2 := build()
	run2()
	repl := core.NewReplicator(cl2, ctr2, core.DefaultConfig())
	repl.Timeline = &trace.Timeline{}
	repl.Start()
	clock2.RunUntil(simtime.Time(2 * simtime.Second))
	repl.Stop()

	mcStop, nlStop := meanOf(mc.Timeline, stopSeconds), meanOf(repl.Timeline, stopSeconds)
	if mcStop >= nlStop {
		t.Fatalf("MC stop (%.2fms) should be below NiLiCon stop (%.2fms): no in-kernel state collection",
			mcStop*1000, nlStop*1000)
	}
	if ctr1.RuntimeOverhead <= ctr2.RuntimeOverhead {
		t.Fatalf("MC runtime overhead (%v) should exceed NiLiCon's (%v): VM exits vs soft-dirty",
			ctr1.RuntimeOverhead, ctr2.RuntimeOverhead)
	}
}

// TestMCStopBetweenPauses: an MC stopped during the execution phase takes
// no further checkpoint and steals no further runtime tax: its next
// epoch and its pending tax both find it stopped.
func TestMCStopBetweenPauses(t *testing.T) {
	clock := simtime.NewClock()
	cl := core.NewShardedCluster(clock, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("vm", "10.0.0.20", 1)
	ctr.AddProcess("guest", 0)
	mc := New(cl, ctr, Config{RuntimeTaxPerEpoch: simtime.Millisecond})
	mc.Start()
	clock.RunFor(100 * simtime.Millisecond)
	for ctr.Frozen() { // stop right after a pause, before the epoch's tax
		clock.Step()
	}
	epochs, overhead := mc.Epochs(), ctr.RuntimeOverhead
	mc.Stop()
	clock.RunFor(100 * simtime.Millisecond)
	if mc.Epochs() != epochs || ctr.RuntimeOverhead != overhead || ctr.Frozen() {
		t.Fatalf("after Stop: epochs %d → %d, runtime overhead %v → %v, frozen %v",
			epochs, mc.Epochs(), overhead, ctr.RuntimeOverhead, ctr.Frozen())
	}
}
