package core

import (
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// Witness is the quorum-promotion arbiter for f+1 chains (DESIGN.md
// §15). The pair-era lease is a two-party protocol: each backup grants
// the primary a release lease and unilaterally promotes itself once the
// primary's heartbeats go stale and its own last grant has provably
// expired. With more than one backup that protocol is unsafe under
// asymmetric partitions — one backup can lose its primary links and
// promote while the primary, still holding a live grant from another
// backup, keeps serving. The witness closes the hole by centralizing
// both authorities on a third failure domain:
//
//   - it is the ONLY lease grantor: the primary's release right renews
//     solely from witness grants, fed by a primary→witness keep-alive;
//
//   - it is the ONLY election arbiter: a replica that finds the primary
//     stale sends a candidacy (its committed epoch) instead of
//     promoting itself. While the witness can still hear the primary it
//     refuses to conclude; once the primary is stale at the witness too
//     it opens a one-heartbeat-interval candidacy window, elects the
//     most-caught-up replica (ties to the lowest slot), and sends a
//     single promote-grant carrying the witness's last grant-send
//     stamp, which the replica uses as its promotion barrier.
//
// At most one promote-grant is ever outstanding, so at most one replica
// can pass a promotion barrier — and the barrier covers every lease the
// primary could possibly hold, because only the witness ever granted
// one. If the primary's heartbeats resume at the elected replica while
// it waits out the barrier, the promotion aborts and the witness is
// notified so a later staleness episode can elect again.
//
// Partition geometries and their outcomes (the at-most-one-serving
// oracle exercises each):
//
//   - primary dead / zone-killed: grants stop (primary fences
//     vacuously), replicas go stale, witness elects; one survivor
//     serves.
//   - witness isolated: grants stop → the primary self-fences; replicas
//     still hear the primary → no candidacies; nobody serves until the
//     partition heals (strict-safety availability cost, paid honestly).
//   - asymmetric cut (one replica loses the primary): that replica
//     sends candidacies, but the witness still hears the primary and
//     refuses to conclude; the primary keeps serving alone. Without the
//     witness (PreQuorum mode) this exact geometry dual-serves.
type Witness struct {
	r     *Replicator
	clock *simtime.Clock

	// KeepAliveLink carries primary→witness keep-alives and GrantLink
	// witness→primary lease grants; CandidacyLinks[i] carries replica
	// i→witness candidacies and abort notices, PromoteLinks[i] the
	// witness→replica-i promote-grant. Exported so chaos campaigns can
	// cut them per partition geometry.
	KeepAliveLink  *simnet.Link
	GrantLink      *simnet.Link
	CandidacyLinks []*simnet.Link
	PromoteLinks   []*simnet.Link

	latency simtime.Duration
	bw      int64

	lastKeepAlive simtime.Time
	lastGrantSent simtime.Time

	ticker *simtime.Ticker
	halted bool

	// electing marks an open candidacy window; candidates maps slot →
	// its freshest bid. Bids expire after the detection deadline: a
	// candidacy left over from a staleness episode that has since
	// resolved (the replica healed and stopped re-sending) must not
	// seed a later election.
	electing   bool
	candidates map[int]candidacy
	// promoted marks the one promote-grant this witness will ever send
	// (absent an abort); promotedSlot is its recipient.
	promoted     bool
	promotedSlot int

	// Elections counts concluded elections that sent a promote-grant;
	// Aborts counts promotions abandoned because the primary's
	// heartbeats resumed at the elected replica.
	Elections int
	Aborts    int
}

// candidacy is one replica's promotion bid: its advertised committed
// epoch and the arrival time of its freshest re-send.
type candidacy struct {
	committed uint64
	at        simtime.Time
}

// AttachWitness hosts a witness for the replicator's chain and makes it
// the sole lease grantor: from this point the chain's backups send
// beats but never grants, and on primary staleness they send candidacies
// instead of self-promoting. Must be attached before faults are
// injected; attaching to a running replicator arms its ticker
// immediately. latency/bw parameterize the witness's links (zero values
// take the replication-link defaults).
func AttachWitness(r *Replicator, latency simtime.Duration, bw int64) *Witness {
	if latency <= 0 {
		latency = 50 * simtime.Microsecond
	}
	if bw <= 0 {
		bw = 1_250_000_000
	}
	clk := r.Cluster.Clock
	w := &Witness{
		r: r, clock: clk, latency: latency, bw: bw,
		KeepAliveLink: simnet.NewLink(clk, latency, bw),
		GrantLink:     simnet.NewLink(clk, latency, bw),
		candidates:    make(map[int]candidacy),
	}
	for range r.chain {
		w.addReplicaLinks()
	}
	r.witness = w
	if r.running {
		w.start()
	}
	return w
}

func (w *Witness) addReplicaLinks() {
	// Candidacies originate on the replica's host, promote-grants on the
	// witness's (co-scheduled with the primary's clock); each link is
	// bound remote so its deliveries run as the receiving host's shard.
	i := len(w.CandidacyLinks)
	bclk := w.r.chain[i].view.Backup.Clock
	cand := simnet.NewLink(bclk, w.latency, w.bw)
	prom := simnet.NewLink(w.clock, w.latency, w.bw)
	if bclk != w.clock {
		cand.BindRemote(w.clock)
		prom.BindRemote(bclk)
	}
	w.CandidacyLinks = append(w.CandidacyLinks, cand)
	w.PromoteLinks = append(w.PromoteLinks, prom)
}

// addReplica provisions links for a slot attached after the witness.
func (w *Witness) addReplica() { w.addReplicaLinks() }

func (w *Witness) start() {
	w.lastKeepAlive = w.clock.Now()
	// Grant accounting starts at arming time: the primary armed its own
	// initial lease in the same instant, so the barrier math covers it.
	w.lastGrantSent = w.lastKeepAlive
	w.ticker = simtime.NewTicker(w.clock, w.r.Cfg.HeartbeatInterval, w.tick)
}

func (w *Witness) stop() {
	if w.ticker != nil {
		w.ticker.Stop()
	}
}

// Halt kills the witness the way a host power loss would: it neither
// grants nor arbitrates again. Campaigns use it for witness-domain
// kills; mere partitions cut the links instead.
func (w *Witness) Halt() {
	w.halted = true
	w.stop()
}

// Halted reports whether the witness host was killed.
func (w *Witness) Halted() bool { return w.halted }

// Promoted reports whether a promote-grant is outstanding (or consumed)
// and, if so, which slot received it.
func (w *Witness) Promoted() (int, bool) { return w.promotedSlot, w.promoted }

// primaryKeepAlive is called from the primary's heartbeat tick under
// the same progress gating as replica heartbeats: a wedged primary
// stops renewing and fences itself one lease term later.
func (w *Witness) primaryKeepAlive() {
	w.KeepAliveLink.TransferExpress(16, func() {
		if !w.halted {
			w.lastKeepAlive = w.clock.Now()
		}
	})
}

// tick is the witness's detector: grant while the primary is fresh,
// open a candidacy window once it is stale and replicas are asking.
func (w *Witness) tick() {
	if w.halted {
		return
	}
	now := w.clock.Now()
	deadline := simtime.Duration(w.r.Cfg.HeartbeatMisses) * w.r.Cfg.HeartbeatInterval
	stale := now.Sub(w.lastKeepAlive) > deadline
	// Expire old bids first: live candidates re-send every detector
	// tick, so anything older than the detection deadline is an echo of
	// a resolved episode. (Map iteration order is irrelevant — the
	// surviving set is the same either way.)
	for slot, c := range w.candidates {
		if now.Sub(c.at) > deadline {
			delete(w.candidates, slot)
		}
	}
	if !stale && !w.promoted {
		r := w.r
		sentAt := now
		w.lastGrantSent = sentAt
		w.GrantLink.TransferExpress(16, func() { r.leaseGranted(sentAt) })
	}
	if stale && w.promoted {
		// The chain's single promote-grant may have been dropped on a
		// downed link; without a re-send the one-shot promotion would
		// wedge forever. Re-sending while the primary stays stale and
		// the elected replica has not recovered is idempotent (the
		// replica ignores duplicates once its promotion is pending) and
		// still targets at most one slot until an abort returns the
		// grant.
		if s := w.r.chain[w.promotedSlot]; !s.fenced && !s.agent.halted && !s.agent.recovered {
			ag := s.agent
			floor := w.lastGrantSent
			w.PromoteLinks[w.promotedSlot].TransferExpress(16, func() { ag.witnessPromote(floor) })
		}
	}
	if stale && !w.promoted && !w.electing && len(w.candidates) > 0 {
		// One heartbeat interval for further candidacies to arrive, so
		// the election sees every reachable replica's watermark rather
		// than crowning the first to notice.
		w.electing = true
		w.clock.Schedule(w.r.Cfg.HeartbeatInterval, w.concludeElection)
	}
}

// candidacyArrived records a replica's bid. Replicas re-send on every
// detector tick while the primary is stale, so a lost candidacy only
// delays the window, never wedges it.
func (w *Witness) candidacyArrived(slot int, committed uint64) {
	if w.halted || w.promoted {
		return
	}
	c, ok := w.candidates[slot]
	if !ok || committed > c.committed {
		c.committed = committed
	}
	c.at = w.clock.Now()
	w.candidates[slot] = c
}

// concludeElection closes the candidacy window. If the primary's
// keep-alives resumed meanwhile the election is void; otherwise the
// most-caught-up live candidate (ties to the lowest slot — iteration is
// in slot order, deterministically) gets the chain's single
// promote-grant, stamped with the witness's last grant send so the
// replica's promotion barrier covers every lease the primary may hold.
func (w *Witness) concludeElection() {
	if w.halted || w.promoted {
		return
	}
	w.electing = false
	now := w.clock.Now()
	deadline := simtime.Duration(w.r.Cfg.HeartbeatMisses) * w.r.Cfg.HeartbeatInterval
	if now.Sub(w.lastKeepAlive) <= deadline {
		w.candidates = make(map[int]candidacy)
		return
	}
	best := -1
	var bestC uint64
	for slot := 0; slot < len(w.r.chain); slot++ {
		c, ok := w.candidates[slot]
		if !ok || now.Sub(c.at) > deadline {
			continue
		}
		s := w.r.chain[slot]
		if s.fenced || s.agent.halted || s.agent.recovered {
			continue
		}
		if best == -1 || c.committed > bestC {
			best, bestC = slot, c.committed
		}
	}
	w.candidates = make(map[int]candidacy)
	if best < 0 {
		return
	}
	w.promoted, w.promotedSlot = true, best
	w.Elections++
	ag := w.r.chain[best].agent
	floor := w.lastGrantSent
	w.PromoteLinks[best].TransferExpress(16, func() { ag.witnessPromote(floor) })
}

// promotionAborted returns the promote-grant: the elected replica heard
// the primary again while waiting out the barrier. A later staleness
// episode elects afresh from new candidacies.
func (w *Witness) promotionAborted(slot int) {
	if w.halted {
		return
	}
	if w.promoted && w.promotedSlot == slot {
		w.promoted = false
		w.Aborts++
	}
	w.candidates = make(map[int]candidacy)
}

// --- Replica side ------------------------------------------------------------

// grantsLease reports whether this agent issues lease grants: true in
// the two-party protocol, false once a witness centralizes granting.
func (b *BackupAgent) grantsLease() bool { return b.r.witness == nil }

// sendCandidacy bids for promotion instead of self-promoting (quorum
// mode): the witness arbitrates. Nothing is sent before the first
// commit — there is nothing to recover to.
func (b *BackupAgent) sendCandidacy() {
	w := b.r.witness
	if w == nil || !b.hasCommitted {
		return
	}
	slot, committed := b.slot, b.committed
	w.CandidacyLinks[slot].TransferExpress(16, func() { w.candidacyArrived(slot, committed) })
}

// witnessPromote consumes the promote-grant: raise the promotion
// barrier to cover the witness's last grant send, then run the normal
// lease-barriered recovery.
func (b *BackupAgent) witnessPromote(grantFloor simtime.Time) {
	if b.recovered || b.halted || b.promotePending {
		return
	}
	b.RaiseGrantFloor(grantFloor)
	b.Recover()
}

// RaiseGrantFloor raises this agent's promotion-barrier base to cover
// grants it did not itself send: the witness's grant stamp in quorum
// mode, or the chain-wide ChainLastGrantSent when a control plane
// promotes one replica of a multi-grantor chain.
func (b *BackupAgent) RaiseGrantFloor(t simtime.Time) {
	if t > b.lastGrantSent {
		b.lastGrantSent = t
	}
}

// notifyWitnessAbort tells the witness an elected replica aborted its
// promotion because the primary's heartbeats resumed.
func (b *BackupAgent) notifyWitnessAbort() {
	w := b.r.witness
	if w == nil {
		return
	}
	slot := b.slot
	w.CandidacyLinks[slot].TransferExpress(16, func() { w.promotionAborted(slot) })
}
