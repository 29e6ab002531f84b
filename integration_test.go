package nilicon_test

import (
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/faultinject"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/trace"
	"nilicon/internal/workloads"
)

// TestEndToEndFailover is the repository's top-level smoke test: the
// quickstart flow — protect a KV container, drive verified load, fail
// the primary, and require transparent recovery. Beyond what
// Example_quickstart prints, it checks the restored container's TCP
// state: its stack sent no reset, and every socket restored in repair
// mode had its repaired write queue retransmitted and acknowledged.
func TestEndToEndFailover(t *testing.T) {
	sc := simtime.NewEngine()
	clock := sc.Root()
	cluster := core.NewShardedCluster(sc, core.ClusterParams{})
	ctr := cluster.NewProtectedContainer("kv", "10.0.0.10", 1)
	server := workloads.Redis()
	server.Install(ctr)

	cfg := core.DefaultConfig()
	cfg.ExtraStopPerCheckpoint = server.Profile().TotalExtraStop()
	var restored core.RestoredContainer
	var repaired []*simnet.Socket
	queued := 0
	cfg.Reattach = func(rc core.RestoredContainer, state any) {
		restored = rc
		for _, s := range rc.Stack.Sockets() {
			if s.InRepair() {
				repaired = append(repaired, s)
				queued += s.UnackedBytes()
			}
		}
		if err := workloads.Redis().Reattach(rc, state); err != nil {
			t.Errorf("reattach: %v", err)
		}
	}
	repl := core.NewReplicator(cluster, ctr, cfg)
	repl.Start()

	clients := server.NewClients(cluster, "10.0.0.10", 1, 42)
	clock.RunFor(1500 * simtime.Millisecond)
	if clients.Completed == 0 {
		t.Fatal("no requests completed before the fault")
	}
	faultinject.FailStop(repl)
	before := clients.Completed
	clock.RunFor(8 * simtime.Second)

	if !repl.Backup.Recovered() {
		t.Fatal("no failover")
	}
	if err := repl.Backup.RecoverError(); err != nil {
		t.Fatal(err)
	}
	if clients.Completed <= before {
		t.Fatal("service did not resume after failover")
	}
	if n := len(clients.ValidationErrors()); n != 0 {
		t.Fatalf("%d content errors across failover: %v", n, clients.ValidationErrors()[0])
	}
	if clients.Resets != 0 {
		t.Fatalf("%d broken connections", clients.Resets)
	}

	if restored == nil || len(repaired) == 0 || queued == 0 {
		t.Fatalf("reattach saw %d repaired sockets holding %d unacknowledged bytes, want a non-empty write queue", len(repaired), queued)
	}
	// Stop the server taking new requests and let its output drain. A
	// cumulative ACK drops a segment only with every segment before it,
	// so an empty write queue means the repaired bytes were retransmitted
	// and acknowledged.
	for _, s := range repaired {
		s.OnData = nil
	}
	clock.RunFor(simtime.Second)
	for _, s := range repaired {
		if s.UnackedBytes() != 0 || s.Reset || s.InRepair() {
			t.Fatalf("restored socket %v: %d bytes unacknowledged after draining (reset %v, repair %v)",
				s, s.UnackedBytes(), s.Reset, s.InRepair())
		}
	}
	if n := restored.Stack.RSTsSent(); n != 0 {
		t.Fatalf("restored stack sent %d resets", n)
	}
}

// TestDeterminism re-runs the same simulation twice and requires
// identical results — the property every experiment in this repository
// relies on.
func TestDeterminism(t *testing.T) {
	run := func() (int64, uint64, float64) {
		sc := simtime.NewEngine()
		clock := sc.Root()
		cluster := core.NewShardedCluster(sc, core.ClusterParams{})
		ctr := cluster.NewProtectedContainer("kv", "10.0.0.10", 1)
		server := workloads.Redis()
		server.Install(ctr)
		cfg := core.DefaultConfig()
		cfg.ExtraStopPerCheckpoint = server.Profile().TotalExtraStop()
		repl := core.NewReplicator(cluster, ctr, cfg)
		repl.Timeline = &trace.Timeline{}
		repl.Start()
		clients := server.NewClients(cluster, "10.0.0.10", 1, 7)
		clock.RunUntil(simtime.Time(2 * simtime.Second))
		var stop float64
		for _, rec := range repl.Timeline.Records() {
			stop += rec.Stop.Seconds()
		}
		return clients.Completed, repl.Epochs(), stop
	}
	c1, e1, s1 := run()
	c2, e2, s2 := run()
	if c1 != c2 || e1 != e2 || s1 != s2 {
		t.Fatalf("non-deterministic: (%d,%d,%v) vs (%d,%d,%v)", c1, e1, s1, c2, e2, s2)
	}
	if c1 == 0 || e1 == 0 {
		t.Fatal("degenerate run")
	}
}
