package faultinject

import (
	"testing"
	"testing/quick"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
)

func newReplicator() (*simtime.Clock, *core.Replicator) {
	sc := simtime.NewShardedClock(1)
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
