package core

import (
	"fmt"
	"slices"

	"nilicon/internal/container"
	"nilicon/internal/simtime"
)

// f+1 replication chains (DESIGN.md §15). The replicator generalizes
// from one backup to a fan-out chain of N−1 replicas: every checkpoint,
// page delta, DRBD write stream and nondeterminism-log segment is
// shipped to each replica on its own TransferScheduler flow, and each
// replica maintains its own cumulative acknowledgment watermark.
//
// Every watermark is the MINIMUM over the participating replicas
// (unfenced, not catching up): it gates the delta encoder's bases,
// resync retirement, log-segment retention, and — strict chain-tail
// gating — output release and pipeline-run retirement. A wire frame
// must never reference a base some replica lacks, and output is
// released only once every participant holds the epoch, which is what
// makes the f-failure durability claim: any surviving replica of an
// f+1 chain holds every acked epoch.
//
// Every slot is equal. The classic pair is the one-slot chain
// (Replicator.Backup is chain[0].agent); the lead slot — the lowest
// unfenced one — is only the slot whose delivery or loss ends the run's
// transfer. Every live slot is handed the same image, read-only once
// built: the stores it reaches share its page buffers, and a holder
// count decides which of them recycles a superseded one (DESIGN.md §8).

// replicaSlot is one backup replica of the chain.
type replicaSlot struct {
	idx   int
	view  *Cluster
	agent *BackupAgent
	// flow and logFlow name the slot's transfer-scheduler flows for
	// checkpoint images and log segments, formatted once (flowFor).
	flow, logFlow string

	// acked is this replica's cumulative epoch-ack watermark.
	acked  uint64
	hasAck bool
	// logAcked is this replica's cumulative log-segment ack watermark
	// (Opts.RecordReplay).
	logAcked uint64
	// fenced marks a replica cut off by the control plane
	// (FenceReplica); it no longer receives traffic or gates release.
	fenced bool
	// catchingUp marks a repair replica added mid-stream
	// (AttachReplica while running): it receives the full-resync
	// baseline like everyone else but is excluded from both watermarks
	// until its first ack, so bringing a chain back to strength never
	// stalls the healthy replicas' release path.
	catchingUp bool
	// lastBeat is when this replica's most recent reverse liveness
	// beat arrived (lease mode or an external arbiter).
	lastBeat simtime.Time
	// sends are the image sends on their way to this replica.
	sends []*imageSend
}

// NewChainReplicator wires a replicator over an f+1 chain of cluster
// views (the fleet builds one per chain replica): views[0] is the
// classic primary/backup pair, each further view adds one replica that
// shares the primary side and brings its own backup host, links and
// DRBD secondary. A chain wider than a pair needs an external arbiter
// (SetExternalArbiter): with every replica self-promoting on its own
// staleness view, one that loses only its own primary link promotes
// while the primary serves on the others' grants.
func NewChainReplicator(views []*Cluster, ctr *container.Container, cfg Config) *Replicator {
	r := NewReplicator(views[0], ctr, cfg)
	for _, v := range views[1:] {
		r.AttachReplica(v)
	}
	return r
}

// AttachReplica adds one replica to the chain and returns its slot
// index. The view must share the primary side with the existing chain
// (same clock, primary host and DRBD primary end) and carry its own
// backup host, replication/ack links, transfer scheduler and an
// already-attached DRBD secondary (simdisk.AttachSecondary).
//
// Attached before Start, the replica takes part in the initial full
// synchronization like a day-one chain member. Attached while running
// (chain repair), it starts as a non-voting catching-up replica and a
// full-resync baseline is armed for the next checkpoint — the same
// NACK-repair machinery that heals link outages brings it up to date —
// and it joins the watermarks at its first ack.
func (r *Replicator) AttachReplica(view *Cluster) int {
	idx := len(r.chain)
	s := r.newSlot(idx, view, newBackupAgent(view, r.Cfg, r))
	r.chain = append(r.chain, s)
	if r.running {
		s.catchingUp = true
		s.lastBeat = r.Cluster.Clock.Now()
		s.agent.start()
		r.resyncArmed = true
	}
	return idx
}

// Replicas returns the chain length including fenced slots (the total
// number of backup replicas ever attached; the protected container
// itself is the +1).
func (r *Replicator) Replicas() int { return len(r.chain) }

// ReplicaAgent returns slot i's backup agent.
func (r *Replicator) ReplicaAgent(i int) *BackupAgent { return r.chain[i].agent }

// ReplicaView returns slot i's cluster view.
func (r *Replicator) ReplicaView(i int) *Cluster { return r.chain[i].view }

// ReplicaFenced reports whether slot i has been fenced.
func (r *Replicator) ReplicaFenced(i int) bool { return r.chain[i].fenced }

// ReplicaAcked returns slot i's cumulative epoch-ack watermark.
func (r *Replicator) ReplicaAcked(i int) (uint64, bool) {
	s := r.chain[i]
	return s.acked, s.hasAck
}

// ReplicaAckLag returns how many epochs slot i's acknowledgment trails
// the newest checkpoint taken.
func (r *Replicator) ReplicaAckLag(i int) uint64 {
	if r.epoch == 0 {
		return 0
	}
	s := r.chain[i]
	newest := r.epoch - 1
	if !s.hasAck {
		return newest + 1
	}
	if s.acked >= newest {
		return 0
	}
	return newest - s.acked
}

// LastReplicaBeat returns when slot i's most recent reverse liveness
// beat arrived (the fleet's host detector aggregates this per replica).
func (r *Replicator) LastReplicaBeat(i int) simtime.Time { return r.chain[i].lastBeat }

// ChainLastGrantSent returns the newest grant-send stamp across every
// chain replica. A control plane promoting one replica of a
// multi-grantor chain must raise that replica's promotion barrier to
// this chain-wide maximum (BackupAgent.RaiseGrantFloor): the old
// primary may be holding a lease granted by any of the others.
func (r *Replicator) ChainLastGrantSent() simtime.Time {
	var max simtime.Time
	for _, s := range r.chain {
		if t := s.agent.lastGrantSent; t > max {
			max = t
		}
	}
	return max
}

// SetExternalArbiter hands promotion arbitration to an outside control
// plane: replicas stop self-promoting on heartbeat staleness (the fleet
// detector convicts hosts and picks the one slot to Recover, raising
// its grant floor to ChainLastGrantSent first). It also turns on every
// backup's reverse liveness beat, the evidence the fleet detector reads
// about backup hosts. The fleet sets it on every chain it builds, a pair
// being the one-replica chain.
func (r *Replicator) SetExternalArbiter() { r.externalArbiter = true }

// Quorum returns how many replicas currently gate release: every
// participating (unfenced, caught-up) slot.
func (r *Replicator) Quorum() int {
	n := 0
	for _, s := range r.chain {
		if s.participates() {
			n++
		}
	}
	return n
}

// lead returns the chain's lead slot, the lowest unfenced one (nil when
// every slot is fenced).
func (r *Replicator) lead() *replicaSlot {
	for _, s := range r.chain {
		if !s.fenced {
			return s
		}
	}
	return nil
}

// LeadSlot returns the index of the lead slot (DESIGN.md §15): the
// lowest unfenced one, or 0 when every slot is fenced.
func (r *Replicator) LeadSlot() int {
	if s := r.lead(); s != nil {
		return s.idx
	}
	return 0
}

// flowFor names slot i's transfer-scheduler flow for checkpoint images
// and resync snapshots. Slot 0 keeps the pre-chain name so existing
// flows, fences and traces are untouched; the suffixes matter on the
// fleet's shared per-host NIC, where every slot's traffic multiplexes
// one scheduler.
func (r *Replicator) flowFor(i int) string {
	if i == 0 {
		return r.Ctr.ID
	}
	return fmt.Sprintf("%s/r%d", r.Ctr.ID, i)
}

// newSlot makes slot idx of the chain around its view and agent.
func (r *Replicator) newSlot(idx int, view *Cluster, agent *BackupAgent) *replicaSlot {
	agent.slot = idx
	flow := r.flowFor(idx)
	return &replicaSlot{idx: idx, view: view, agent: agent, flow: flow, logFlow: flow + "/log"}
}

// live reports whether the slot receives the chain's traffic: not
// fenced, and its agent neither promoted nor halted.
func (s *replicaSlot) live() bool {
	return !s.fenced && !s.agent.recovered && !s.agent.halted
}

// participates reports whether the slot gates the watermarks: not
// fenced, not still catching up.
func (s *replicaSlot) participates() bool { return !s.fenced && !s.catchingUp }

// slotMin returns the minimum of mark over the participating slots —
// the one watermark rule. False when no slot participates, or some
// participant has no mark yet.
func (r *Replicator) slotMin(mark func(*replicaSlot) (uint64, bool)) (uint64, bool) {
	var min uint64
	found := false
	for _, s := range r.chain {
		if !s.participates() {
			continue
		}
		m, ok := mark(s)
		if !ok {
			return 0, false
		}
		if !found || m < min {
			min, found = m, true
		}
	}
	return min, found
}

// The chain's three watermarks: epoch acks gate delta bases, resync
// retirement, log commit and release; committed epochs back the
// output-commit assertion; log acks gate segment retention (a retained
// segment may still need retransmission to any participant).
func ackedEpoch(s *replicaSlot) (uint64, bool)     { return s.acked, s.hasAck }
func committedEpoch(s *replicaSlot) (uint64, bool) { return s.agent.CommittedEpoch() }
func ackedSegment(s *replicaSlot) (uint64, bool)   { return s.logAcked, true }

// ackReceivedFrom is the per-replica epoch acknowledgment entry point:
// record slot's cumulative ack, then re-derive the chain watermark.
// Acks are cumulative: a backup commits in epoch order, so an ack for e
// vouches for every epoch <= e — this is what lets a single post-resync
// ack retire the pipeline runs of all the epochs that were lost on the
// link (their own acks never existed).
func (r *Replicator) ackReceivedFrom(slot int, e uint64) {
	if r.stopped {
		return
	}
	s := r.chain[slot]
	if s.fenced {
		return
	}
	if !s.hasAck || e > s.acked {
		s.acked = e
		s.hasAck = true
	}
	s.catchingUp = false
	r.recomputeWatermarks()
}

// recomputeWatermarks re-derives the chain's ack watermark and applies
// its consequences: the delta encoder's base gate, resync retirement,
// implicit log-segment commit, pipeline-run retirement and output
// release. Called on every ack and whenever the participant set changes
// (a fence can advance the watermark by removing the laggard).
func (r *Replicator) recomputeWatermarks() {
	if r.stopped {
		return
	}
	if m, ok := r.slotMin(ackedEpoch); ok {
		if !r.hasAcked || m > r.ackedThrough {
			r.ackedThrough = m
			r.hasAcked = true
		}
		if r.resyncPendingB && m >= r.resyncPending {
			r.resyncPendingB = false
		}
		if r.rec != nil {
			// A checkpoint committed by every participant implicitly
			// commits every log segment sealed before its freeze
			// (replay.go).
			r.rec.epochAcked(m)
		}
		r.retireThrough(m)
	}
	if r.rec != nil {
		r.logRecompute()
	}
}

// retireThrough retires every pipeline run covered by the ack
// watermark e. Acks are cumulative: the watermark vouches for every
// epoch <= e, including epochs whose own transfer was lost and whose
// acks therefore never existed (they are covered by a later resync).
// Every epoch <= e that has left the pipeline was released when it
// did, so the runs still in flight are all there is to release. A
// self-fenced primary retires nothing: the covered runs stay in flight,
// in epoch order, until a grant returns (unfence).
func (r *Replicator) retireThrough(e uint64) {
	if !r.releaseAuthorized() {
		return
	}
	now := r.Cluster.Clock.Now()
	for r.inflight.Len() > 0 && r.inflight.Peek().epoch <= e {
		run := r.inflight.Pop()
		if run.transferred {
			run.ackWait = now.Sub(run.transferredAt)
		} else {
			// The epoch's own transfer was lost; it is covered by a later
			// resync image. Retire the run without pretending it measured
			// anything.
			run.lossy = true
			run.finishTransfer()
		}
		run.releaseOutput()
	}
}

// logAckedFrom is the per-replica log-segment acknowledgment entry
// point (Opts.RecordReplay).
func (r *Replicator) logAckedFrom(slot int, seq uint64) {
	if r.rec == nil || r.stopped {
		return
	}
	s := r.chain[slot]
	if s.fenced {
		return
	}
	if seq > s.logAcked {
		s.logAcked = seq
	}
	r.logRecompute()
}

// logRecompute re-derives the chain log watermark: segments every
// participant has acknowledged are retired, and the buffered egress
// through the watermark is released unless a fence holds it there.
func (r *Replicator) logRecompute() {
	rec := r.rec
	if rec == nil || r.stopped {
		// Every caller checks both first.
		panic("core: log watermark recomputed without a recorder or after stop")
	}
	if m, ok := r.slotMin(ackedSegment); ok {
		rec.retire(m, r.Cluster.Clock.Now())
		if m > rec.acked {
			rec.acked = m
		}
	}
	if r.releaseAuthorized() && rec.released < rec.acked {
		rec.releaseThrough(rec.acked)
	}
}

// unfencedCount returns how many chain slots are not fenced.
func (r *Replicator) unfencedCount() int {
	n := 0
	for _, s := range r.chain {
		if !s.fenced {
			n++
		}
	}
	return n
}

// FenceReplica cuts one dead replica off from a healthy chain: its
// agent halts, its DRBD secondary detaches from the primary end, and
// its queued transfer traffic is cancelled so it cannot occupy the
// shared NIC. The remaining replicas keep the chain protected; the
// watermarks are re-derived immediately, since removing the laggard can
// advance the release path. Fencing the last replica degenerates to the
// full FenceBackup (the pair-era semantics: the container runs
// unprotected until re-protected).
func (r *Replicator) FenceReplica(i int) {
	s := r.chain[i]
	if s.fenced {
		return
	}
	if r.unfencedCount() == 1 {
		r.FenceBackup()
		return
	}
	s.fenced = true
	s.agent.Halt()
	r.Cluster.DRBDPrimary.DetachPeer(s.view.DRBDBackup)
	r.cancelFlows(s)
	r.recomputeWatermarks()
}

// cancelFlows drops the slot's image, resync and log traffic, so it
// cannot occupy the shared NIC, and lets go of its image sends. A
// cancelled lead send hands the lead to the lowest slot with a send of
// the run still on its way, or, with none, ends the transfer unmeasured.
func (r *Replicator) cancelFlows(s *replicaSlot) {
	s.view.Xfer.CancelFlow(s.flow)
	s.view.Xfer.CancelFlow(s.flow + "/resync")
	s.view.Xfer.CancelFlow(s.logFlow)
	for len(s.sends) > 0 {
		run := s.sends[0].run
		s.sends[0].release()
		if run.lead == s && !run.transferred {
			run.lead = nil
			for _, t := range r.chain {
				if run.lead == nil && slices.ContainsFunc(t.sends, func(is *imageSend) bool { return is.run == run }) {
					run.lead = t
				}
			}
			if run.lead == nil {
				run.lossy = true
				run.finishTransfer()
			}
		}
		run.unref()
	}
}

// backupBeatSeenFrom records the arrival of slot's reverse liveness
// beat.
func (r *Replicator) backupBeatSeenFrom(slot int) {
	r.chain[slot].lastBeat = r.Cluster.Clock.Now()
}
