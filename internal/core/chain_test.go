package core

import (
	"testing"

	"fmt"

	"nilicon/internal/container"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// NewChainViews builds the topology for a standalone f+1 replication
// chain (DESIGN.md §15): one primary host and replicas-1 backup hosts,
// each backup joined to the primary by its own dedicated
// replication/ack link pair and its own DRBD secondary over the
// primary's volume, all on the one clock. views[0] is a classic pair
// cluster; each further view shares the primary side (clock, switch,
// primary host, DRBD primary end) and carries its own backup host,
// links, transfer scheduler and DRBD secondary. Pass the slice to NewChainReplicator. Only tests build
// such a chain: in a program a chain wider than a pair runs under the
// fleet control plane (internal/cluster), which builds its own views.
func NewChainViews(clock *simtime.Clock, replicas int) []*Cluster {
	if replicas < 2 {
		replicas = 2
	}
	base := NewShardedCluster(clock, ClusterParams{})
	views := []*Cluster{base}
	for i := 1; i < replicas-1; i++ {
		repl := simnet.NewLink(clock, ReplLatency, ReplBW)
		ack := simnet.NewLink(clock, ReplLatency, ReplBW)
		v := &Cluster{
			Clock:       clock,
			Switch:      base.Switch,
			Primary:     base.Primary,
			Backup:      container.NewHost(fmt.Sprintf("backup%d", i+1), clock, base.Switch),
			ReplLink:    repl,
			AckLink:     ack,
			DRBDPrimary: base.DRBDPrimary,
		}
		v.Xfer = NewTransferScheduler(clock, repl)
		v.DRBDBackup = base.DRBDPrimary.AttachSecondary(v.Backup.Disk, repl)
		views = append(views, v)
	}
	return views
}

// chainEnv bundles a running f+1-chain-replicated kv container.
type chainEnv struct {
	clock *simtime.Clock
	views []*Cluster
	ctr   *container.Container
	app   *kvApp
	repl  *Replicator
}

// newChainEnv builds a chain of replicas total replicas. attach limits
// how many backup views are wired in up front (0 = all); the rest stay
// available for AttachReplica repair tests.
func newChainEnv(t *testing.T, replicas int, cfg Config, attach int) *chainEnv {
	t.Helper()
	clock := simtime.NewClock()
	views := NewChainViews(clock, replicas)
	ctr := views[0].NewProtectedContainer("kv", "10.0.0.10", 1)
	app := &kvApp{data: make(map[string]string)}
	proc := ctr.AddProcess("kvserver", 3)
	app.proc = proc
	app.vma = proc.Mem.Mmap(64*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", ctr.ID)
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
// container leaves the LAN and every view's link pair goes down.
func (env *chainEnv) killPrimary() {
	env.ctr.Disconnect()
	for i := range env.views {
		env.cutView(i)
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

func TestQuorumChainAllReplicasCommit(t *testing.T) {
	env := newChainEnv(t, 3, DefaultConfig(), 0)
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
	env := newChainEnv(t, 3, DefaultConfig(), 0)
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

func TestQuorumFailoverSurvivesTwoSimultaneousFailures(t *testing.T) {
	// f=2 with a 3-replica chain (primary + 2 backups): kill the primary
	// AND one backup in the same instant; the surviving backup must hold
	// every acked write. Strict chain-tail gating is what makes this
	// true — the client saw "OK" only after BOTH backups committed. With
	// one survivor there is nothing to arbitrate: it promotes itself.
	cfg := DefaultConfig()
	cfg.Lease = DefaultLease()
	env := newChainEnv(t, 3, cfg, 0)
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

func TestQuorumPreQuorumAsymmetricCutDualServes(t *testing.T) {
	// Why a chain wider than a pair runs only under the fleet control
	// plane: WITHOUT an external arbiter, each backup of a multi-replica
	// chain is its own lease grantor and election arbiter. Under an
	// asymmetric cut the isolated replica waits out only its OWN last
	// grant and promotes while the primary keeps serving on the other
	// replica's grants — two servers, one IP. This test pins the unsafe
	// behavior so the arbiter is demonstrably load-bearing, exactly as
	// the pre-lease split-brain regression does for the pair.
	cfg := DefaultConfig()
	cfg.Lease = DefaultLease()
	env := newChainEnv(t, 3, cfg, 0) // no arbiter: per-slot two-party leases
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
		t.Fatal("expected dual-serving without an arbiter; has the multi-grantor hole been closed another way?")
	}
}

func TestQuorumAttachReplicaCatchesUp(t *testing.T) {
	// Chain repair: a replica attached mid-stream starts non-voting,
	// receives the next full-resync baseline, and joins the watermarks
	// at its first ack — without ever stalling the healthy replicas.
	env := newChainEnv(t, 3, DefaultConfig(), 1) // wire only backup 0 up front
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
	env := newChainEnv(t, 3, DefaultConfig(), 0)
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

func TestQuorumFencedSlotZeroGetsNoImages(t *testing.T) {
	// Fencing slot 0 of a 3-chain hands the lead to slot 1: the dead
	// slot's link carries nothing more, and since no image is dropped on
	// it, nothing re-arms a full resync while the survivor keeps the
	// chain releasing output.
	env := newChainEnv(t, 3, DefaultConfig(), 0)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)
	client := newKVClient(env.views[0], "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(200 * simtime.Millisecond)

	env.cutView(0)
	env.repl.FenceReplica(0)
	if lead := env.repl.LeadSlot(); lead != 1 {
		t.Fatalf("lead slot = %d after fencing slot 0, want 1", lead)
	}
	sent := env.views[0].ReplLink.BytesSent()
	resyncs := env.repl.Resyncs.Value()
	client.send("SET after fence")
	env.clock.RunFor(simtime.Second)

	if got := env.views[0].ReplLink.BytesSent(); got != sent {
		t.Fatalf("fenced slot 0's link carried %d more bytes", got-sent)
	}
	if d := env.repl.Resyncs.Value() - resyncs; d > 1 {
		t.Fatalf("%d full resyncs in 1 s with slot 0 fenced, want at most 1", d)
	}
	if len(client.replies) != 1 || client.replies[0] != "OK" {
		t.Fatalf("write not released with slot 1 leading: %v", client.replies)
	}
}
