package core

import (
	"fmt"

	"nilicon/internal/container"
	"nilicon/internal/metrics"
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
// unfenced one — keeps each epoch's original image and drives the
// pipeline's transfer stage, and every other slot gets a clone.

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
	// beat arrived (Config.BackupBeat / lease mode).
	lastBeat simtime.Time

	// lag mirrors this replica's epoch-ack lag behind the newest
	// checkpoint for the metrics layer.
	lag metrics.Gauge
}

// NewChainReplicator wires a replicator over an f+1 chain of cluster
// views as built by NewChainViews/NewShardedChainViews: views[0] is the
// classic primary/backup pair, each further view adds one replica that
// shares the primary side and brings its own backup host, links and
// DRBD secondary.
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
	if r.witness != nil {
		r.witness.addReplica()
	}
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

// ReplicaAckLagGauge returns slot i's ack-lag gauge (updated on every
// ack arrival).
func (r *Replicator) ReplicaAckLagGauge(i int) *metrics.Gauge { return &r.chain[i].lag }

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
// its grant floor to ChainLastGrantSent first). The fleet sets it on
// every chain it builds, a pair being the one-replica chain.
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

// chainMinAcked returns the minimum epoch-ack watermark across the
// participating replicas — the base-safety watermark. False until every
// participant has acknowledged at least once.
func (r *Replicator) chainMinAcked() (uint64, bool) {
	var min uint64
	found := false
	for _, s := range r.chain {
		if !s.participates() {
			continue
		}
		if !s.hasAck {
			return 0, false
		}
		if !found || s.acked < min {
			min, found = s.acked, true
		}
	}
	return min, found
}

// chainCommittedWatermark returns the minimum committed epoch across
// the participating replicas' agents; the release stage's output-commit
// assertion checks the released epoch against it.
func (r *Replicator) chainCommittedWatermark() (uint64, bool) {
	var min uint64
	found := false
	for _, s := range r.chain {
		if !s.participates() {
			continue
		}
		c, ok := s.agent.CommittedEpoch()
		if !ok {
			return 0, false
		}
		if !found || c < min {
			min, found = c, true
		}
	}
	return min, found
}

// chainLogMin returns the minimum log-segment ack watermark across the
// participating replicas (segment-retention gate: a retained segment
// may still need retransmission to any of them).
func (r *Replicator) chainLogMin() (uint64, bool) {
	var min uint64
	found := false
	for _, s := range r.chain {
		if s.participates() && (!found || s.logAcked < min) {
			min, found = s.logAcked, true
		}
	}
	return min, found
}

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
	s.lag.Set(int64(r.ReplicaAckLag(slot)))
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
	if m, ok := r.chainMinAcked(); ok {
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
func (r *Replicator) retireThrough(e uint64) {
	if r.inflight.len() == 0 || r.inflight.peek().epoch > e {
		// No pipeline record (replication restarted across a failover);
		// the backups only acknowledge committed epochs, so releasing
		// directly preserves the output-commit rule — unless a lapsed
		// lease has fenced the release path, in which case the
		// watermark parks until a grant returns.
		if !r.releaseAuthorized() {
			if !r.hasParkedDirect || e > r.parkedDirect {
				r.parkedDirect = e
				r.hasParkedDirect = true
			}
			return
		}
		r.releaseDirect(e)
		return
	}
	now := r.Cluster.Clock.Now()
	for r.inflight.len() > 0 && r.inflight.peek().epoch <= e {
		run := r.inflight.pop()
		if run.done[StageTransfer] {
			run.complete(StageAwaitAck, now, now.Sub(run.doneAt[StageTransfer]))
		} else {
			// The epoch's own transfer was lost; it is covered by a later
			// resync image. Retire the run without pretending it measured
			// anything.
			run.lossy = true
			run.complete(StageTransfer, now, 0)
			run.complete(StageAwaitAck, now, 0)
		}
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
// participant has acknowledged are retired, and their buffered egress
// is released unless a fence holds it (unfence releases through acked).
func (r *Replicator) logRecompute() {
	rec := r.rec
	if rec == nil || r.stopped {
		return
	}
	m, ok := r.chainLogMin()
	if !ok {
		return
	}
	rec.retire(m, r.Cluster.Clock.Now())
	if m <= rec.acked {
		return
	}
	rec.acked = m
	if r.releaseAuthorized() {
		rec.releaseThrough(m)
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
	s.view.Xfer.CancelFlow(s.flow)
	s.view.Xfer.CancelFlow(s.flow + "/resync")
	s.view.Xfer.CancelFlow(s.logFlow)
	r.recomputeWatermarks()
}

// backupBeatSeenFrom records the arrival of slot's reverse liveness
// beat.
func (r *Replicator) backupBeatSeenFrom(slot int) {
	r.chain[slot].lastBeat = r.Cluster.Clock.Now()
}
