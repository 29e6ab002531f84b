package core

import (
	"testing"

	"nilicon/internal/container"
	"nilicon/internal/simkernel"
	"nilicon/internal/simtime"
)

// chainEnv bundles a running f+1-chain-replicated kv container.
type chainEnv struct {
	clock *simtime.Clock
	views []*Cluster
	ctr   *container.Container
	app   *kvApp
	repl  *Replicator
}

// newChainEnv builds a chain of cfg.Replicas total replicas. attach
// limits how many backup views are wired in up front (0 = all); the
// rest stay available for AttachReplica repair tests.
func newChainEnv(t *testing.T, cfg Config, attach int) *chainEnv {
	t.Helper()
	if cfg.Replicas < 2 {
		cfg.Replicas = 2
	}
	sc := simtime.NewEngine()
	clock := sc.Root()
	views := NewShardedChainViews(sc, ClusterParams{}, cfg.Replicas)
	ctr := views[0].NewProtectedContainer("kv", "10.0.0.10", 1)
	app := &kvApp{data: make(map[string]string)}
	proc := ctr.AddProcess("kvserver", 3)
	app.proc = proc
	app.vma = proc.Mem.Mmap(64*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", proc.PID, ctr.ID)
	_ = proc.Mem.Touch(app.vma, 0, 64, 1)
	app.attach(ctr)

	cfg.Reattach = func(rc RestoredContainer, state any) {
		app.RestoreState(state)
		app.attach(rc)
	}
	wired := views
	if attach > 0 && attach < len(views) {
		wired = views[:attach]
	}
	repl := NewChainReplicator(wired, ctr, cfg)
	return &chainEnv{clock: clock, views: views, ctr: ctr, app: app, repl: repl}
}

// cutView downs one replica view's links (both directions).
func (env *chainEnv) cutView(i int) {
	env.views[i].ReplLink.SetDown(true)
	env.views[i].AckLink.SetDown(true)
}

// killPrimary models primary host death toward the whole chain: the
// container leaves the LAN and every view's link pair goes down, as do
// the witness keep-alive/grant links if a witness is attached.
func (env *chainEnv) killPrimary() {
	env.ctr.Disconnect()
	for i := range env.views {
		env.cutView(i)
	}
	if w := env.repl.witness; w != nil {
		w.KeepAliveLink.SetDown(true)
		w.GrantLink.SetDown(true)
	}
}

// servingCount counts serving replicas at this instant; primaryAlive
// excludes a killed primary host (a dead host cannot serve regardless
// of its frozen lease state).
func (env *chainEnv) servingCount(primaryAlive bool) int {
	n := 0
	if primaryAlive && env.repl.Serving() {
		n++
	}
	for i := 0; i < env.repl.Replicas(); i++ {
		if env.repl.ReplicaAgent(i).Serving() {
			n++
		}
	}
	return n
}

func chainConfig(replicas int) Config {
	cfg := DefaultConfig()
	cfg.Replicas = replicas
	return cfg
}

func TestQuorumChainAllReplicasCommit(t *testing.T) {
	env := newChainEnv(t, chainConfig(3), 0)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)
	client := newKVClient(env.views[0], "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(200 * simtime.Millisecond)
	client.send("SET name chained")
	env.clock.RunFor(200 * simtime.Millisecond)
	client.send("GET name")
	env.clock.RunFor(200 * simtime.Millisecond)
	if len(client.replies) != 2 || client.replies[1] != "chained" {
		t.Fatalf("replies = %v", client.replies)
	}
	if env.repl.Replicas() != 2 {
		t.Fatalf("chain length = %d, want 2 backups", env.repl.Replicas())
	}
	for i := 0; i < env.repl.Replicas(); i++ {
		acked, ok := env.repl.ReplicaAcked(i)
		if !ok || acked < 10 {
			t.Fatalf("replica %d acked=%d ok=%v, want steady acks", i, acked, ok)
		}
		if lag := env.repl.ReplicaAckLag(i); lag > 3 {
			t.Fatalf("replica %d ack lag = %d epochs", i, lag)
		}
	}
}

func TestQuorumStrictGatingStallsOnLaggard(t *testing.T) {
	// With the strict default quorum, one unreachable replica must stall
	// output release — that stall is exactly what buys the f-failure
	// durability claim.
	env := newChainEnv(t, chainConfig(3), 0)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)
	client := newKVClient(env.views[0], "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(200 * simtime.Millisecond)

	env.cutView(1)
	env.clock.RunFor(50 * simtime.Millisecond)
	client.send("SET k v")
	env.clock.RunFor(400 * simtime.Millisecond)
	if len(client.replies) != 0 {
		t.Fatalf("strict chain released output with a replica unreachable: %v", client.replies)
	}

	// Healing the partition lets the laggard resynchronize and the
	// stalled release flush.
	env.views[1].ReplLink.SetDown(false)
	env.views[1].AckLink.SetDown(false)
	env.clock.RunFor(time2s())
	if len(client.replies) != 1 || client.replies[0] != "OK" {
		t.Fatalf("stalled output never flushed after heal: %v", client.replies)
	}
}

func TestQuorumOneReleasesWithLaggard(t *testing.T) {
	// CommitQuorum=1 trades durability for availability: the fastest
	// replica's ack releases output even while another is unreachable.
	cfg := chainConfig(3)
	cfg.CommitQuorum = 1
	env := newChainEnv(t, cfg, 0)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)
	client := newKVClient(env.views[0], "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(200 * simtime.Millisecond)

	env.cutView(1)
	env.clock.RunFor(50 * simtime.Millisecond)
	client.send("SET k v")
	env.clock.RunFor(400 * simtime.Millisecond)
	if len(client.replies) != 1 || client.replies[0] != "OK" {
		t.Fatalf("quorum=1 chain did not release with one laggard: %v", client.replies)
	}
}

func TestQuorumFailoverSurvivesTwoSimultaneousFailures(t *testing.T) {
	// f=2 with a 3-replica chain (primary + 2 backups): kill the primary
	// AND one backup in the same instant; the surviving backup must hold
	// every acked write. Strict chain-tail gating is what makes this
	// true — the client saw "OK" only after BOTH backups committed.
	cfg := chainConfig(3)
	cfg.Lease = DefaultLease()
	env := newChainEnv(t, cfg, 0)
	AttachWitness(env.repl, 0, 0)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)
	client := newKVClient(env.views[0], "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(200 * simtime.Millisecond)

	client.send("SET account 1000")
	env.clock.RunFor(200 * simtime.Millisecond)
	if len(client.replies) != 1 || client.replies[0] != "OK" {
		t.Fatalf("setup replies = %v", client.replies)
	}

	// Simultaneous primary + backup-0 host death.
	env.killPrimary()
	env.repl.ReplicaAgent(0).Halt()
	env.clock.RunFor(3 * simtime.Second)

	surv := env.repl.ReplicaAgent(1)
	if !surv.Recovered() {
		t.Fatal("surviving replica never promoted")
	}
	if err := surv.RecoverError(); err != nil {
		t.Fatal(err)
	}
	if env.repl.ReplicaAgent(0).Recovered() {
		t.Fatal("halted replica promoted")
	}
	client.send("GET account")
	env.clock.RunFor(time2s())
	if len(client.replies) < 2 || client.replies[len(client.replies)-1] != "1000" {
		t.Fatalf("acked write lost through double failure: %v", client.replies)
	}
}

func TestQuorumWitnessElectsExactlyOne(t *testing.T) {
	// Primary dies with both backups alive: the witness must elect
	// exactly one (the most-caught-up), and at no sampled instant may
	// two replicas serve.
	cfg := chainConfig(3)
	cfg.Lease = DefaultLease()
	env := newChainEnv(t, cfg, 0)
	w := AttachWitness(env.repl, 0, 0)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)

	maxServing := 0
	sampler := simtime.NewTicker(env.clock, simtime.Millisecond, func() {
		if n := env.servingCount(false); n > maxServing {
			maxServing = n
		}
	})
	defer sampler.Stop()

	env.killPrimary()
	env.clock.RunFor(3 * simtime.Second)

	if w.Elections != 1 {
		t.Fatalf("elections = %d, want exactly 1", w.Elections)
	}
	recovered := 0
	for i := 0; i < env.repl.Replicas(); i++ {
		if env.repl.ReplicaAgent(i).Recovered() {
			recovered++
		}
	}
	if recovered != 1 {
		t.Fatalf("recovered replicas = %d, want exactly 1", recovered)
	}
	if maxServing > 1 {
		t.Fatalf("observed %d replicas serving simultaneously", maxServing)
	}
	if env.servingCount(false) != 1 {
		t.Fatal("no replica serving after election settled")
	}
}

func TestQuorumWitnessRefusesAsymmetricCut(t *testing.T) {
	// One replica loses its links to the primary while the witness still
	// hears primary keep-alives: the isolated replica's candidacies must
	// be refused, the primary keeps its lease, and nobody promotes.
	cfg := chainConfig(3)
	cfg.Lease = DefaultLease()
	env := newChainEnv(t, cfg, 0)
	w := AttachWitness(env.repl, 0, 0)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)

	maxServing := 0
	sampler := simtime.NewTicker(env.clock, simtime.Millisecond, func() {
		if n := env.servingCount(true); n > maxServing {
			maxServing = n
		}
	})
	defer sampler.Stop()

	env.cutView(1)
	env.clock.RunFor(3 * simtime.Second)

	if w.Elections != 0 {
		t.Fatalf("witness concluded an election while the primary was reachable (%d)", w.Elections)
	}
	for i := 0; i < env.repl.Replicas(); i++ {
		if env.repl.ReplicaAgent(i).Recovered() {
			t.Fatalf("replica %d promoted under an asymmetric cut", i)
		}
	}
	if !env.repl.Serving() {
		t.Fatal("primary lost its lease despite a live witness")
	}
	if maxServing > 1 {
		t.Fatalf("observed %d replicas serving simultaneously", maxServing)
	}
}

func TestQuorumPreQuorumAsymmetricCutDualServes(t *testing.T) {
	// The escape hatch the witness exists for: WITHOUT a witness, each
	// backup of a multi-replica chain is its own lease grantor and
	// election arbiter. Under the same asymmetric cut as above, the
	// isolated replica waits out only its OWN last grant and promotes
	// while the primary keeps serving on the other replica's grants —
	// two servers, one IP. This test pins the unsafe behavior so the
	// witness's at-most-one-serving guarantee is demonstrably load-
	// bearing, exactly as the pre-lease split-brain regression does for
	// the pair.
	cfg := chainConfig(3)
	cfg.Lease = DefaultLease()
	env := newChainEnv(t, cfg, 0) // no witness: PreQuorum mode
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)

	dualObserved := false
	sampler := simtime.NewTicker(env.clock, simtime.Millisecond, func() {
		if env.servingCount(true) > 1 {
			dualObserved = true
		}
	})
	defer sampler.Stop()

	env.cutView(1)
	env.clock.RunFor(3 * simtime.Second)

	if !env.repl.ReplicaAgent(1).Recovered() {
		t.Fatal("isolated replica never self-promoted (the unsafe behavior this test pins)")
	}
	if !dualObserved {
		t.Fatal("expected dual-serving without a witness; has the multi-grantor hole been closed another way?")
	}
}

func TestQuorumAttachReplicaCatchesUp(t *testing.T) {
	// Chain repair: a replica attached mid-stream starts non-voting,
	// receives the next full-resync baseline, and joins the watermarks
	// at its first ack — without ever stalling the healthy replicas.
	env := newChainEnv(t, chainConfig(3), 1) // wire only backup 0 up front
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)
	client := newKVClient(env.views[0], "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(200 * simtime.Millisecond)

	idx := env.repl.AttachReplica(env.views[1])
	if idx != 1 {
		t.Fatalf("attached slot = %d", idx)
	}
	// Service must continue while the newcomer catches up.
	client.send("SET during repair")
	env.clock.RunFor(300 * simtime.Millisecond)
	if len(client.replies) != 1 || client.replies[0] != "OK" {
		t.Fatalf("release stalled during chain repair: %v", client.replies)
	}

	env.clock.RunFor(time2s())
	acked, ok := env.repl.ReplicaAcked(idx)
	if !ok {
		t.Fatal("attached replica never acknowledged")
	}
	if lag := env.repl.ReplicaAckLag(idx); lag > 3 {
		t.Fatalf("attached replica still lagging %d epochs (acked=%d)", lag, acked)
	}
	if env.repl.chain[idx].catchingUp {
		t.Fatal("attached replica still marked catching-up")
	}
}

func TestQuorumFenceReplicaKeepsChainProtected(t *testing.T) {
	// Fencing one dead replica of a 3-chain must keep the survivor
	// protecting the pair (releases resume via the narrowed quorum) —
	// and must not degenerate to the unprotected FenceBackup state.
	env := newChainEnv(t, chainConfig(3), 0)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)
	client := newKVClient(env.views[0], "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(200 * simtime.Millisecond)

	env.cutView(1)
	env.clock.RunFor(100 * simtime.Millisecond)
	env.repl.FenceReplica(1)
	if env.repl.Fenced() {
		t.Fatal("fencing one of two replicas degenerated to full FenceBackup")
	}
	if !env.repl.ReplicaFenced(1) {
		t.Fatal("replica not fenced")
	}
	client.send("SET after fence")
	env.clock.RunFor(400 * simtime.Millisecond)
	if len(client.replies) != 1 || client.replies[0] != "OK" {
		t.Fatalf("release did not resume after fencing the laggard: %v", client.replies)
	}

	// Fencing the last replica IS the unprotected degenerate case.
	env.repl.FenceReplica(0)
	if !env.repl.Fenced() {
		t.Fatal("fencing the last replica must fence the backup entirely")
	}
}
