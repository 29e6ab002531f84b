package core

import (
	"fmt"
	"testing"

	"nilicon/internal/simtime"
)

// Boundary tests for the output-release lease (DESIGN.md §10). These run
// in-package so they can pin exact instants against the unexported state
// machine: the DES makes "exactly at the term's end" a precise, stable
// assertion rather than a sleep-and-hope.

func leaseTestEnv(t *testing.T) *testEnv {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Opts = AllOpts()
	cfg.Lease = DefaultLease()
	env := newTestEnv(t, cfg)
	env.repl.Start()
	return env
}

// TestLeaseTimelineInequalities pins the relations between the fixed
// detection and lease constants that the DESIGN.md §10 safety argument
// rests on, so editing one constant breaks a test rather than the
// argument.
func TestLeaseTimelineInequalities(t *testing.T) {
	if DetectionDeadline != 3*heartbeatInterval {
		t.Fatalf("DetectionDeadline = %s, want 3 heartbeats (%s)", DetectionDeadline, 3*heartbeatInterval)
	}
	// Grants ride every detector tick, so a healthy pair renews several
	// times per term, and a term outlives the detection deadline.
	if leaseTerm <= DetectionDeadline {
		t.Fatalf("lease term %s does not exceed the detection deadline %s", leaseTerm, DetectionDeadline)
	}
	if renewals := leaseTerm / heartbeatInterval; renewals < 3 {
		t.Fatalf("only %d renewals per lease term, want several", renewals)
	}
	// The barrier sits past every lease the backup ever granted: the
	// primary's copy expires at last grant + term, and the skew margin
	// puts promotion strictly after it.
	if leaseSkewMargin <= 0 {
		t.Fatalf("skew margin %s leaves no gap between fence and promotion", leaseSkewMargin)
	}
	b := &BackupAgent{lastGrantSent: simtime.Time(7 * simtime.Millisecond)}
	if got, want := b.promotionBarrier(), b.lastGrantSent.Add(leaseTerm+leaseSkewMargin); got != want {
		t.Fatalf("promotion barrier = %d, want last grant + term + skew = %d", int64(got), int64(want))
	}
	// The supersede beacon sends at least one notice.
	if supersedeFor < heartbeatInterval {
		t.Fatalf("supersede window %s is shorter than one beacon tick %s", supersedeFor, heartbeatInterval)
	}
}

// TestLeaseFenceExactlyAtTermEnd: after the grants stop arriving, the
// primary stays authorized through every instant strictly before the
// last received grant's term ends, and self-fences at precisely that
// instant — not one tick earlier (that would trade availability for
// nothing) and not one tick later (the backup's barrier math assumes
// the primary's copy of the lease is the earlier-expiring one).
func TestLeaseFenceExactlyAtTermEnd(t *testing.T) {
	env := leaseTestEnv(t)
	env.clock.RunFor(500 * simtime.Millisecond)
	if env.repl.LeaseState() != LeaseHeld {
		t.Fatalf("steady state lease = %s, want held", env.repl.LeaseState())
	}

	env.cl.AckLink.SetDown(true)
	// Let in-flight deliveries resolve so leaseExpiresAt is final.
	env.clock.RunFor(simtime.Millisecond)
	exp := env.repl.leaseExpiresAt

	env.clock.RunUntil(exp - 1)
	if env.repl.LeaseState() != LeaseHeld {
		t.Fatalf("fenced at t=%d, one tick before the term end %d", int64(env.clock.Now()), int64(exp))
	}
	env.clock.RunUntil(exp)
	if env.repl.LeaseState() != LeaseSelfFenced {
		t.Fatalf("lease = %s at the term end, want fenced", env.repl.LeaseState())
	}
	if env.repl.SelfFences.Value() != 1 {
		t.Fatalf("SelfFences = %d, want 1", env.repl.SelfFences.Value())
	}
}

// TestPromotionExactlyAtSkewMargin: a fully partitioned backup convicts
// the primary on heartbeat staleness but must hold its promotion until
// exactly lastGrantSent + leaseTerm + leaseSkewMargin — and the primary must
// already be self-fenced strictly before that instant. The ordering
// fence-then-promote is the at-most-one-serving proof obligation.
func TestPromotionExactlyAtSkewMargin(t *testing.T) {
	env := leaseTestEnv(t)
	env.clock.RunFor(500 * simtime.Millisecond)

	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)

	b := env.repl.Backup
	for i := 0; i < 300 && !b.PromotionPending(); i++ {
		env.clock.RunFor(simtime.Millisecond)
	}
	if !b.PromotionPending() {
		t.Fatal("backup never convicted the partitioned primary")
	}
	barrier := b.promotionBarrier()

	env.clock.RunUntil(barrier - 1)
	if b.Recovered() {
		t.Fatalf("backup promoted at t=%d, before the barrier %d", int64(env.clock.Now()), int64(barrier))
	}
	if !b.PromotionPending() {
		t.Fatal("conviction evaporated while waiting out the barrier")
	}
	if env.repl.LeaseState() != LeaseSelfFenced {
		t.Fatalf("primary lease = %s one tick before the barrier, want fenced (fence must precede promotion)",
			env.repl.LeaseState())
	}

	env.clock.RunUntil(barrier)
	if b.PromotionPending() {
		t.Fatal("barrier instant passed but the promotion never fired")
	}
	env.clock.RunFor(300 * simtime.Millisecond)
	if !b.Recovered() {
		t.Fatal("promotion fired at the barrier but recovery did not complete")
	}
}

// TestGrantAtLapseInstantKeepsLease: a grant landing in the same
// simulated instant the lease lapses renews it — after that tick the
// primary is held, no in-flight run is held at or below the ack
// watermark, and once acks flow again the client is served.
func TestGrantAtLapseInstantKeepsLease(t *testing.T) {
	env := leaseTestEnv(t)
	cli := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(500 * simtime.Millisecond)

	env.cl.AckLink.SetDown(true)
	env.clock.RunFor(simtime.Millisecond)
	exp := env.repl.leaseExpiresAt

	env.clock.ScheduleAt(exp, func() {
		env.repl.leaseGranted(env.clock.Now())
	})
	env.clock.RunUntil(exp)
	if env.repl.LeaseState() != LeaseHeld {
		t.Fatalf("lease = %s after a same-instant grant, want held", env.repl.LeaseState())
	}
	if acked, ok := env.repl.AckedThrough(); ok && env.repl.inflight.Len() > 0 && env.repl.inflight.Peek().epoch <= acked {
		t.Fatalf("epoch %d still held at or below the ack watermark %d after the same-instant renewal",
			env.repl.inflight.Peek().epoch, acked)
	}

	env.cl.AckLink.SetDown(false)
	cli.send("SET boundary v")
	env.clock.RunFor(300 * simtime.Millisecond)
	if len(cli.replies) == 0 || cli.replies[len(cli.replies)-1] != "OK" {
		t.Fatalf("client not served after renewal + heal: replies = %v", cli.replies)
	}
}

// TestPromotionAbortsOnHeal: the partition heals after conviction but
// before the barrier. The barrier must abort the promotion (heartbeats
// are fresh again), the backup must keep its unrecovered role, commits
// must resume over the epochs buffered while acks were suppressed, and
// the primary must be re-granted its lease.
func TestPromotionAbortsOnHeal(t *testing.T) {
	env := leaseTestEnv(t)
	cli := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(500 * simtime.Millisecond)

	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)
	b := env.repl.Backup
	for i := 0; i < 300 && !b.PromotionPending(); i++ {
		env.clock.RunFor(simtime.Millisecond)
	}
	if !b.PromotionPending() {
		t.Fatal("backup never convicted the partitioned primary")
	}

	// Heal inside the conviction→barrier window.
	env.cl.ReplLink.SetDown(false)
	env.cl.AckLink.SetDown(false)
	env.clock.RunUntil(b.promotionBarrier())
	if b.Recovered() {
		t.Fatal("backup promoted across a healed partition")
	}
	if b.PromotionPending() {
		t.Fatal("aborted promotion left the conviction pending")
	}

	com0, ok := b.CommittedEpoch()
	if !ok {
		t.Fatal("no committed epoch after heal")
	}
	env.clock.RunFor(300 * simtime.Millisecond)
	if com1, _ := b.CommittedEpoch(); com1 <= com0 {
		t.Fatalf("commits did not resume after the aborted promotion: %d -> %d", com0, com1)
	}
	if env.repl.LeaseState() != LeaseHeld {
		t.Fatalf("primary lease = %s after heal, want held", env.repl.LeaseState())
	}
	cli.send("SET aborted v")
	env.clock.RunFor(200 * simtime.Millisecond)
	if len(cli.replies) == 0 || cli.replies[len(cli.replies)-1] != "OK" {
		t.Fatalf("client not served after aborted promotion: replies = %v", cli.replies)
	}
}

// TestNoReleaseWhileFenced: a fenced primary keeps checkpointing but
// releases nothing — the client-visible reply stream freezes for the
// whole fence and resumes (no losses, no reorders) after the grant
// returns.
func TestNoReleaseWhileFenced(t *testing.T) {
	env := leaseTestEnv(t)
	cli := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(500 * simtime.Millisecond)

	env.cl.AckLink.SetDown(true)
	for i := 0; i < 300 && env.repl.LeaseState() != LeaseSelfFenced; i++ {
		env.clock.RunFor(simtime.Millisecond)
	}
	if env.repl.LeaseState() != LeaseSelfFenced {
		t.Fatal("ack outage never fenced the primary")
	}
	// Drain replies released before the fence.
	env.clock.RunFor(50 * simtime.Millisecond)
	frozen := len(cli.replies)

	const writes = 5
	for i := 0; i < writes; i++ {
		cli.send(fmt.Sprintf("SET fenced%d v%d", i, i))
		env.clock.RunFor(20 * simtime.Millisecond)
	}
	if got := len(cli.replies); got != frozen {
		t.Fatalf("fenced primary released output: replies %d -> %d", frozen, got)
	}

	env.cl.AckLink.SetDown(false)
	env.clock.RunFor(500 * simtime.Millisecond)
	if got := len(cli.replies); got != frozen+writes {
		t.Fatalf("replies after unfence = %d, want %d", len(cli.replies), frozen+writes)
	}
	for _, r := range cli.replies[frozen:] {
		if r != "OK" {
			t.Fatalf("post-fence replies corrupted: %v", cli.replies[frozen:])
		}
	}
	if env.repl.LeaseState() != LeaseHeld {
		t.Fatalf("lease = %s after heal, want held", env.repl.LeaseState())
	}
}

// TestReleasedWatermarkMonotoneAcrossFences: the released-epoch
// watermark never regresses through repeated fence/unfence cycles —
// held epochs release in epoch order, and acks that arrived during a
// fence never rewind the watermark when replayed.
func TestReleasedWatermarkMonotoneAcrossFences(t *testing.T) {
	env := leaseTestEnv(t)
	cli := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")

	var last uint64
	var have bool
	ticker := simtime.NewTicker(env.clock, simtime.Millisecond, func() {
		rel, ok := env.repl.ReleasedEpoch()
		if !ok {
			return
		}
		if have && rel < last {
			t.Fatalf("released watermark regressed %d -> %d at t=%d", last, rel, int64(env.clock.Now()))
		}
		last, have = rel, true
	})
	defer ticker.Stop()

	env.clock.RunFor(500 * simtime.Millisecond)
	sent := 0
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 10; i++ {
			cli.send(fmt.Sprintf("SET c%dk%d v", cycle, i))
			sent++
			env.clock.RunFor(10 * simtime.Millisecond)
		}
		env.cl.AckLink.SetDown(true)
		env.clock.RunFor(300 * simtime.Millisecond) // fences at ~120ms in
		env.cl.AckLink.SetDown(false)
		env.clock.RunFor(200 * simtime.Millisecond)
	}
	if env.repl.SelfFences.Value() != 3 {
		t.Fatalf("SelfFences = %d, want one per cycle (3)", env.repl.SelfFences.Value())
	}
	if env.repl.LeaseState() != LeaseHeld {
		t.Fatalf("final lease = %s, want held", env.repl.LeaseState())
	}
	env.clock.RunFor(500 * simtime.Millisecond)
	if len(cli.replies) != sent {
		t.Fatalf("replies = %d, want %d", len(cli.replies), sent)
	}
	if !have {
		t.Fatal("released watermark never observed")
	}
}

// TestFenceHoldsAckWatermarkUntilGrant: a self-fenced primary holds its
// release watermark even when a fence of a lagging replica advances the
// ack watermark under it. Slot 1 of a two-slot chain lags (its
// replication link is cut), both ack links are cut so the primary
// self-fences, and FenceReplica(1) then raises the ack watermark to slot
// 0's: nothing is released — neither the released epoch nor the client's
// reply moves. The first grant after slot 0's ack link heals releases
// every held epoch, in epoch order, at that instant.
func TestFenceHoldsAckWatermarkUntilGrant(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts OptSet
	}{{"all", AllOpts()}, {"replay", ReplayOpts()}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Opts = tc.opts
			cfg.Lease = DefaultLease()
			env := newChainEnv(t, 3, cfg, 0)
			env.repl.SetExternalArbiter()
			tl := recordEpochs(env.repl)
			env.repl.Start()
			env.clock.RunFor(500 * simtime.Millisecond)
			cli := newKVClient(env.views[0], "10.0.0.1", "10.0.0.10")
			env.clock.RunFor(100 * simtime.Millisecond)

			env.views[1].ReplLink.SetDown(true)
			cli.send("SET held v")
			env.clock.RunFor(100 * simtime.Millisecond)
			if len(cli.replies) != 0 {
				t.Fatalf("reply released while slot 1 lags: %v", cli.replies)
			}
			env.views[0].AckLink.SetDown(true)
			env.views[1].AckLink.SetDown(true)
			env.clock.RunFor(200 * simtime.Millisecond)
			if env.repl.LeaseState() != LeaseSelfFenced {
				t.Fatalf("lease = %s with both ack links cut, want fenced", env.repl.LeaseState())
			}

			acked0, _ := env.repl.AckedThrough()
			rel0, _ := env.repl.ReleasedEpoch()
			env.repl.FenceReplica(1)
			acked1, _ := env.repl.AckedThrough()
			if acked1 <= acked0 || acked1 <= rel0 {
				t.Fatalf("fencing the laggard left the ack watermark at %d (was %d, released %d)", acked1, acked0, rel0)
			}
			env.clock.RunFor(100 * simtime.Millisecond)
			if rel, _ := env.repl.ReleasedEpoch(); rel != rel0 {
				t.Fatalf("fenced primary released epochs %d..%d", rel0+1, rel)
			}
			if len(cli.replies) != 0 {
				t.Fatalf("fenced primary released the reply: %v", cli.replies)
			}
			if rec := env.repl.rec; rec != nil && rec.released >= rec.acked {
				t.Fatalf("no log segment held under the fence: released %d, acked %d", rec.released, rec.acked)
			}

			env.views[0].AckLink.SetDown(false)
			healed := env.clock.Now()
			for i := 0; i < 1000 && env.repl.LeaseState() != LeaseHeld; i++ {
				env.clock.RunFor(100 * simtime.Microsecond)
			}
			if env.repl.LeaseState() != LeaseHeld {
				t.Fatal("no grant reached the primary after slot 0's ack link healed")
			}
			if rel, _ := env.repl.ReleasedEpoch(); rel < acked1 {
				t.Fatalf("the grant released through epoch %d, want the held watermark %d", rel, acked1)
			}
			if rec := env.repl.rec; rec != nil && rec.released < rec.acked {
				t.Fatalf("the grant left log segments held: released %d, acked %d", rec.released, rec.acked)
			}
			// Every held epoch is released at the one grant's instant, and
			// the timeline receives every epoch in epoch order.
			var last, held uint64
			var grant simtime.Time
			for i, r := range tl.Records() {
				if i > 0 && r.Epoch <= last {
					t.Fatalf("epoch %d recorded after epoch %d", r.Epoch, last)
				}
				last = r.Epoch
				if r.Epoch <= rel0 || r.Epoch > acked1 {
					continue
				}
				at := r.At.Add(r.Commit)
				if held > 0 && at != grant {
					t.Fatalf("held epoch %d released at t=%d, another at t=%d", r.Epoch, int64(at), int64(grant))
				}
				grant = at
				held++
			}
			if held == 0 || grant <= healed {
				t.Fatalf("%d held epochs released, at t=%d (ack link healed at t=%d)", held, int64(grant), int64(healed))
			}
			env.clock.RunFor(50 * simtime.Millisecond)
			if len(cli.replies) != 1 || cli.replies[0] != "OK" {
				t.Fatalf("replies after the grant = %v, want [OK]", cli.replies)
			}
		})
	}
}

// TestUnprotectedPrimaryStopsStreamingLog: under the Availability policy
// a record/replay primary whose ack link stays cut declares itself
// unprotected and stops recording: no log segment is sealed or streamed
// and the backup buffers no more, however long the outage lasts, while
// every client write is still answered.
func TestUnprotectedPrimaryStopsStreamingLog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Opts = ReplayOpts()
	cfg.Lease = DefaultLease()
	cfg.Degrade = Availability
	env := newTestEnv(t, cfg)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)
	cli := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(100 * simtime.Millisecond)

	env.cl.AckLink.SetDown(true)
	for i := 0; i < 2000 && !env.repl.Unprotected(); i++ {
		env.clock.RunFor(simtime.Millisecond)
	}
	if !env.repl.Unprotected() {
		t.Fatal("the Availability policy never declared the pair unprotected")
	}
	env.clock.RunFor(50 * simtime.Millisecond)
	segs := env.repl.LogSegments.Value()
	buffered := len(env.repl.Backup.logSegs)
	replies := len(cli.replies)

	const writes = 200
	for i := 0; i < writes; i++ {
		cli.send(fmt.Sprintf("SET u%d v", i))
		env.clock.RunFor(5 * simtime.Millisecond)
	}
	env.clock.RunFor(50 * simtime.Millisecond)
	if got := env.repl.LogSegments.Value(); got != segs {
		t.Fatalf("unprotected primary sealed %d log segments", got-segs)
	}
	if got := len(env.repl.Backup.logSegs); got != buffered {
		t.Fatalf("backup buffers %d log segments, was %d", got, buffered)
	}
	if got := len(cli.replies) - replies; got != writes {
		t.Fatalf("unprotected primary answered %d of %d writes", got, writes)
	}
}

// TestUnprotectThawsStopAndCopyMidTransfer: a stop-and-copy primary
// under the Availability policy that declares itself unprotected while
// its image send is on the wire cancels that send, and the cancel ends
// the run's transfer: the container thaws and answers every later
// write.
func TestUnprotectThawsStopAndCopyMidTransfer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Opts.StagingBuffer = false // stop-and-copy: frozen until the transfer ends
	cfg.Lease = DefaultLease()
	cfg.Degrade = Availability
	env := newTestEnv(t, cfg)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)
	cli := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(100 * simtime.Millisecond)

	env.cl.AckLink.SetDown(true)
	for i := 0; i < 1000 && env.repl.LeaseState() != LeaseSelfFenced; i++ {
		env.clock.RunFor(simtime.Millisecond)
	}
	if env.repl.LeaseState() != LeaseSelfFenced {
		t.Fatalf("lease = %s with the ack link cut, want fenced", env.repl.LeaseState())
	}
	// The unprotect deadline's event, run when the lead's send is on
	// the wire.
	var send *xferReq
	for send == nil {
		if !env.clock.Step() {
			t.Fatal("the clock ran dry before the lead's send went on the wire")
		}
		for _, req := range env.cl.Xfer.onWire.All() {
			if req.flow == env.repl.flowFor(0) {
				send = req
			}
		}
	}
	if !env.ctr.Frozen() {
		t.Fatal("the stop-and-copy container runs while its image streams")
	}
	env.repl.unprotectDeadline()
	if !env.repl.Unprotected() || !send.settled {
		t.Fatalf("unprotected %v, lead send settled %v: want both", env.repl.Unprotected(), send.settled)
	}
	replies := len(cli.replies)
	env.clock.RunFor(10 * simtime.Millisecond) // past the freeze's pause

	if env.ctr.Frozen() {
		t.Fatal("the unprotected primary stayed frozen")
	}
	const writes = 20
	for i := 0; i < writes; i++ {
		cli.send(fmt.Sprintf("SET u%d v", i))
		env.clock.RunFor(5 * simtime.Millisecond)
	}
	if got := len(cli.replies) - replies; got < writes {
		t.Fatalf("unprotected primary answered %d of %d writes", got, writes)
	}
}

// TestLeaseStateNames: the spellings of the timeline's lease column.
func TestLeaseStateNames(t *testing.T) {
	for s, want := range map[LeaseState]string{LeaseDisabled: "off", LeaseHeld: "held",
		LeaseSelfFenced: "fenced", LeaseUnprotected: "unprotected", LeaseSuperseded: "superseded"} {
		if got := s.String(); got != want {
			t.Errorf("LeaseState %d prints %q, want %q", int(s), got, want)
		}
	}
}

// TestQuiescedPrimaryStaysFenced: under the Availability policy a
// self-fenced primary declares itself unprotected a second into the
// fence, unless it was quiesced (its host is dead) or its container
// stopped in the meantime: then the deadline finds nothing to resume.
func TestQuiescedPrimaryStaysFenced(t *testing.T) {
	for _, halt := range []string{"quiesce", "stop container"} {
		cfg := DefaultConfig()
		cfg.Lease = DefaultLease()
		cfg.Degrade = Availability
		env := newTestEnv(t, cfg)
		env.repl.Start()
		env.clock.RunFor(500 * simtime.Millisecond)
		env.cl.AckLink.SetDown(true)
		for i := 0; i < 1000 && env.repl.LeaseState() != LeaseSelfFenced; i++ {
			env.clock.RunFor(simtime.Millisecond)
		}
		if halt == "quiesce" {
			env.repl.Quiesce()
		} else {
			env.ctr.Stop()
		}
		env.clock.RunFor(2 * simtime.Second)
		if got := env.repl.LeaseState(); got != LeaseSelfFenced {
			t.Fatalf("%s: lease %s two seconds into the fence, want fenced", halt, got)
		}
	}
}
