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
	sc := simtime.NewEngine()
	clock := sc.Root()
	cl := core.NewShardedCluster(sc, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("ft", "10.0.0.10", 1)
	ctr.AddProcess("app", 1)
	repl := core.NewReplicator(cl, ctr, core.DefaultConfig())
	return clock, repl
}

func TestFailStopBlocksEverything(t *testing.T) {
	clock, repl := newReplicator()
	repl.Start()
	clock.RunFor(200 * simtime.Millisecond)
	inj := FailStop(repl)
	if inj.Kind != "fail-stop" {
		t.Fatalf("kind = %q", inj.Kind)
	}
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
		heapCap     = 64 << 20
	)
	for _, tc := range []struct {
		name string
		opts core.OptSet
	}{{"all", core.AllOpts()}, {"delta", core.DeltaOpts()}} {
		t.Run(tc.name, func(t *testing.T) {
			sc := simtime.NewEngine()
			clock := sc.Root()
			cl := core.NewShardedCluster(sc, core.ClusterParams{})
			ctr := cl.NewProtectedContainer("ft", "10.0.0.10", 1)
			p := ctr.AddProcess("app", 1)
			v := p.Mem.Mmap(mappedPages*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", p.PID, ctr.ID)
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
			epochs := repl.Epochs()
			var peak int64
			for i := 1; i <= 6000; i++ {
				clock.RunFor(5 * simtime.Millisecond)
				got := repl.RetainedImageBytes()
				bound := atFault + cl.Xfer.QueuedBytes() + chunkSlack + repl.LastStats.StateBytes
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
	inj := HardKill(repl)
	if inj.Kind != "hard-kill" {
		t.Fatalf("kind = %q", inj.Kind)
	}
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
		when := Schedule(repl, runLen, seed, FailStop, func(inj Injection) { at = inj.At })
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

func TestOneWayCutsAreAsymmetric(t *testing.T) {
	clock, repl := newReplicator()
	repl.Start()
	clock.RunFor(200 * simtime.Millisecond)
	inj := CutPrimaryToBackup(repl)
	if inj.Kind != "oneway-pb" {
		t.Fatalf("kind = %q", inj.Kind)
	}
	if !repl.Cluster.ReplLink.Down() || repl.Cluster.AckLink.Down() {
		t.Fatal("oneway-pb must down only the repl link")
	}
	Heal(repl)
	inj = CutBackupToPrimary(repl)
	if inj.Kind != "oneway-bp" {
		t.Fatalf("kind = %q", inj.Kind)
	}
	if repl.Cluster.ReplLink.Down() || !repl.Cluster.AckLink.Down() {
		t.Fatal("oneway-bp must down only the ack link")
	}
	if repl.Ctr.Stopped() || !repl.Ctr.Port.Enabled() {
		t.Fatal("one-way cuts must not touch the container")
	}
}

func TestFlapLinksEndsHealed(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		clock, repl := newReplicator()
		repl.Start()
		inj := FlapLinks(repl, seed, 300*simtime.Millisecond)
		if inj.Kind != "flap" {
			t.Fatalf("kind = %q", inj.Kind)
		}
		clock.RunFor(400 * simtime.Millisecond)
		if repl.Cluster.ReplLink.Down() || repl.Cluster.AckLink.Down() {
			t.Fatalf("seed %d: flap burst left a link down", seed)
		}
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) simtime.Time {
		_, repl := newReplicator()
		return Schedule(repl, 20*simtime.Second, seed, FailStop, nil)
	}
	if mk(42) != mk(42) {
		t.Fatal("same seed, different injection time")
	}
	if mk(1) == mk(2) && mk(3) == mk(4) {
		t.Fatal("injection times suspiciously constant across seeds")
	}
}
