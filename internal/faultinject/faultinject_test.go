package faultinject

import (
	"runtime"
	"testing"
	"testing/quick"

	"nilicon/internal/core"
	"nilicon/internal/simkernel"
	"nilicon/internal/simtime"
)

func newReplicator() (*simtime.Clock, *core.Replicator) {
	clock := simtime.NewClock()
	cl := core.NewShardedCluster(clock, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("ft", "10.0.0.10", 1)
	ctr.AddProcess("app", 1)
	repl := core.NewReplicator(cl, ctr, core.DefaultConfig())
	return clock, repl
}

func TestFailStopBlocksEverything(t *testing.T) {
	clock, repl := newReplicator()
	repl.Start()
	clock.RunFor(200 * simtime.Millisecond)
	FailStop(repl)
	if repl.Ctr.Port.Enabled() {
		t.Fatal("container port still enabled")
	}
	if !repl.Cluster.ReplLink.Down() || !repl.Cluster.AckLink.Down() {
		t.Fatal("links not cut")
	}
	// The container itself keeps executing (fail-stop is external).
	if repl.Ctr.Stopped() {
		t.Fatal("fail-stop must not stop the container")
	}
	clock.RunFor(simtime.Second)
	if !repl.Backup.Recovered() {
		t.Fatal("backup did not take over")
	}
}

// An isolated primary keeps checkpointing into its down link, one full
// resync image per epoch. Each image is dead from the moment its
// transfer is lost, so across 30 virtual seconds of isolation the
// primary may retain only what it held at the fault, the images still
// queued on the link (plus the ≤2 chunks in flight) and the newest
// checkpoint not yet handed to the link — never the backlog of lost
// epochs — and the live heap stays under a fixed cap. The run takes
// ~150 full checkpoints of 4 MiB each.
func TestFailStopIsolatedPrimaryRetainsNoLostImages(t *testing.T) {
	const (
		mappedPages = 1024 // a 4 MiB full checkpoint per isolated epoch
		chunkSlack  = 2 * 256 << 10
		recordSlack = 64 << 10 // a checkpoint's non-page records
		heapCap     = 64 << 20
	)
	for _, tc := range []struct {
		name string
		opts core.OptSet
	}{{"all", core.AllOpts()}, {"delta", core.DeltaOpts()}} {
		t.Run(tc.name, func(t *testing.T) {
			clock := simtime.NewClock()
			cl := core.NewShardedCluster(clock, core.ClusterParams{})
			ctr := cl.NewProtectedContainer("ft", "10.0.0.10", 1)
			p := ctr.AddProcess("app", 1)
			v := p.Mem.Mmap(mappedPages*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", ctr.ID)
			if err := p.Mem.Touch(v, 0, mappedPages, 1); err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Opts = tc.opts
			repl := core.NewReplicator(cl, ctr, cfg)
			repl.Start()
			clock.RunFor(500 * simtime.Millisecond)

			FailStop(repl)
			atFault := repl.RetainedImageBytes()
			// The newest checkpoint is at most a full one: every resident
			// page and the non-page records.
			resident := 0
			for _, p := range ctr.Procs {
				resident += p.Mem.ResidentPages()
			}
			newest := int64(resident)*(simkernel.PageSize+16) + recordSlack
			epochs := repl.Epochs()
			var peak int64
			for i := 1; i <= 6000; i++ {
				clock.RunFor(5 * simtime.Millisecond)
				got := repl.RetainedImageBytes()
				bound := atFault + cl.Xfer.QueuedBytes() + chunkSlack + newest
				if got > bound {
					t.Fatalf("after %v of isolation the primary retains %d image bytes, want <= %d (%d held at the fault + queued on the link + newest checkpoint)",
						simtime.Duration(i)*5*simtime.Millisecond, got, bound, atFault)
				}
				peak = max(peak, got)
			}
			if n := repl.Epochs() - epochs; n < 100 || repl.Resyncs.Value() < 100 {
				t.Fatalf("isolated primary took %d checkpoints (%d full resyncs) in 30s, want it to keep checkpointing",
					n, repl.Resyncs.Value())
			}
			// The whole world stays reachable through the measurement: the
			// cap is on what the isolated primary holds, not on garbage.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			runtime.KeepAlive(repl)
			if ms.HeapInuse > heapCap {
				t.Fatalf("heap in use %d MiB after 30s of isolation, cap %d MiB", ms.HeapInuse>>20, heapCap>>20)
			}
			t.Logf("isolation: peak retained %d KiB, heap in use %d MiB", peak>>10, ms.HeapInuse>>20)
		})
	}
}

func TestHardKillStopsContainer(t *testing.T) {
	clock, repl := newReplicator()
	repl.Start()
	clock.RunFor(200 * simtime.Millisecond)
	HardKill(repl)
	if !repl.Ctr.Stopped() {
		t.Fatal("hard kill must stop the container")
	}
	clock.RunFor(simtime.Second)
	if !repl.Backup.Recovered() {
		t.Fatal("backup did not take over after hard kill")
	}
}

func TestScheduleInjectsWithinMiddle80Percent(t *testing.T) {
	f := func(seed int64) bool {
		clock, repl := newReplicator()
		repl.Start()
		runLen := 10 * simtime.Second
		var at simtime.Time
		when := Schedule(repl, runLen, seed, func(r *core.Replicator) {
			at = clock.Now()
			FailStop(r)
		})
		lo := simtime.Time(int64(runLen) / 10)
		hi := simtime.Time(int64(runLen) * 9 / 10)
		if when < lo || when >= hi {
			return false
		}
		clock.RunUntil(simtime.Time(runLen))
		return at == when
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCutDownsOnlyTheChosenLinks covers every link geometry a cut can
// have: each one-way direction alone (the asymmetric cuts) and both
// (a partition). A cut never touches the container, and Heal restores
// every link.
func TestCutDownsOnlyTheChosenLinks(t *testing.T) {
	for _, tc := range []struct {
		name      string
		repl, ack bool
	}{
		{"primary-to-backup", true, false},
		{"backup-to-primary", false, true},
		{"partition", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock, repl := newReplicator()
			repl.Start()
			clock.RunFor(200 * simtime.Millisecond)
			Cut(repl, tc.repl, tc.ack)
			if repl.Cluster.ReplLink.Down() != tc.repl || repl.Cluster.AckLink.Down() != tc.ack {
				t.Fatalf("repl down=%v ack down=%v, want %v and %v",
					repl.Cluster.ReplLink.Down(), repl.Cluster.AckLink.Down(), tc.repl, tc.ack)
			}
			if repl.Ctr.Stopped() || !repl.Ctr.Port.Enabled() {
				t.Fatal("a cut must not touch the container")
			}
			Heal(repl)
			if repl.Cluster.ReplLink.Down() || repl.Cluster.AckLink.Down() {
				t.Fatal("Heal left a link down")
			}
		})
	}
}

func TestFlapLinksEndsHealed(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		clock, repl := newReplicator()
		repl.Start()
		FlapLinks(repl, seed, 300*simtime.Millisecond)
		clock.RunFor(400 * simtime.Millisecond)
		if repl.Cluster.ReplLink.Down() || repl.Cluster.AckLink.Down() {
			t.Fatalf("seed %d: flap burst left a link down", seed)
		}
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) simtime.Time {
		_, repl := newReplicator()
		return Schedule(repl, 20*simtime.Second, seed, FailStop)
	}
	if mk(42) != mk(42) {
		t.Fatal("same seed, different injection time")
	}
	if mk(1) == mk(2) && mk(3) == mk(4) {
		t.Fatal("injection times suspiciously constant across seeds")
	}
}
