package core

import (
	"fmt"
	"sort"

	"nilicon/internal/simtime"
)

// This file implements the split-brain arbitration layer (DESIGN.md
// §10): a time-bounded output-release lease the backup grants the
// primary, renewed implicitly by epoch acknowledgments and backup
// beats. The primary self-fences when the lease expires — it keeps
// checkpointing into the output buffer but releases nothing — and the
// backup promotes only after the lease it last granted has provably
// expired plus a clock-skew margin. Self-fencing therefore strictly
// precedes promotion, so at every simulated instant at most one
// replica releases output, even under one-way link cuts, flapping
// links, and partitions that heal mid-election.

// DegradePolicy selects what a self-fenced primary does when the
// backup outage persists (the lease never comes back).
type DegradePolicy int

const (
	// StrictSafety keeps a self-fenced primary fenced forever: it
	// checkpoints into the buffer and serves nothing until either a
	// grant returns (the partition healed before the backup promoted)
	// or the promoted backup supersedes it. Consistency is never
	// traded, at the price of availability during a long outage in
	// which the backup also died.
	StrictSafety DegradePolicy = iota
	// Availability lets a primary that has been self-fenced for
	// unprotectedAfter declare the pair unprotected: it flushes
	// its buffered output, stops replicating, and resumes serving
	// without acks. The backup can only reach this state's mirror —
	// promotion — if the primary's heartbeats also stopped, so the
	// policy risks divergence only in the true dual-alive partition
	// the lease timeline already arbitrated. A heal triggers a full
	// Reprotect resync.
	Availability
)

// String returns the CLI spelling of the policy.
func (p DegradePolicy) String() string {
	if p == Availability {
		return "availability"
	}
	return "strict"
}

// ParseDegradePolicy maps the niliconctl -degrade flag onto a policy.
func ParseDegradePolicy(s string) (DegradePolicy, error) {
	switch s {
	case "strict", "strictsafety", "strict-safety":
		return StrictSafety, nil
	case "availability", "avail":
		return Availability, nil
	}
	return StrictSafety, fmt.Errorf("unknown degrade policy %q (want strict|availability)", s)
}

// LeaseConfig parameterizes the output-release lease.
type LeaseConfig struct {
	// Enabled turns lease arbitration on. Off (the zero value), the
	// protocol behaves exactly as before this layer existed: output
	// release is gated on acks only, and the detector promotes on
	// heartbeat staleness alone — the configuration the split-brain
	// regression test demonstrates is unsafe under asymmetric cuts.
	Enabled bool
}

// DefaultLease returns the lease with arbitration enabled.
func DefaultLease() LeaseConfig { return LeaseConfig{Enabled: true} }

// The lease timeline is fixed, not configurable: the safety argument
// of DESIGN.md §10 (self-fencing strictly precedes promotion, and a
// healthy pair renews several times per term) is made for these values
// against DetectionDeadline, and TestLeaseTimelineInequalities pins it.
const (
	// leaseTerm is the lease term, measured from the grant's send time
	// (the conservative end: the primary's copy of the lease expires no
	// later than the backup believes it does). It exceeds
	// DetectionDeadline so a healthy pair renews many times per term.
	leaseTerm = 120 * simtime.Millisecond
	// leaseSkewMargin is the extra wait the backup adds past the lease
	// term before promoting, covering clock skew between the replicas.
	leaseSkewMargin = 15 * simtime.Millisecond
	// unprotectedAfter is how long a primary stays self-fenced before
	// the Availability policy declares the pair unprotected. Unused
	// under StrictSafety.
	unprotectedAfter = 1 * simtime.Second
	// supersedeFor bounds how long a promoted backup beacons its
	// supersede notice toward the old primary (so a fenced primary that
	// reconnects stands down instead of waiting forever).
	supersedeFor = 10 * simtime.Second
)

// LeaseState is the primary's position in the lease state machine.
type LeaseState int

const (
	// LeaseDisabled: arbitration off; releases are gated on acks only.
	LeaseDisabled LeaseState = iota
	// LeaseHeld: a live lease authorizes output release.
	LeaseHeld
	// LeaseSelfFenced: the lease expired; the primary checkpoints into
	// the buffer but releases nothing, holding its release watermarks
	// where they are until a grant returns.
	LeaseSelfFenced
	// LeaseUnprotected: the pair runs without a backup — either the
	// Availability policy timed out a fence, or the control plane
	// fenced a dead backup (FenceBackup). Releases flow without acks.
	LeaseUnprotected
	// LeaseSuperseded: the promoted backup's supersede notice arrived;
	// this replica stands down permanently.
	LeaseSuperseded
)

// String returns the timeline-column spelling of the state.
func (s LeaseState) String() string {
	switch s {
	case LeaseHeld:
		return "held"
	case LeaseSelfFenced:
		return "fenced"
	case LeaseUnprotected:
		return "unprotected"
	case LeaseSuperseded:
		return "superseded"
	}
	return "off"
}

// --- Primary side ------------------------------------------------------------

// startLease arms the initial lease at Start time. The backup's
// detector grants from the first tick (grants are withheld only once
// the primary's heartbeats go stale), so a healthy pair renews long
// before this initial term runs out — even while the initial bulk
// synchronization is still streaming.
func (r *Replicator) startLease() {
	if !r.Cfg.Lease.Enabled {
		r.leaseState = LeaseDisabled
		return
	}
	r.leaseState = LeaseHeld
	r.leaseExpiresAt = r.Cluster.Clock.Now().Add(leaseTerm)
	r.armLeaseExpiry()
}

func (r *Replicator) armLeaseExpiry() { r.leaseTimer.ResetAt(r.leaseExpiresAt) }

// cancelLeaseTimers stops every pending lease event (Stop/teardown).
func (r *Replicator) cancelLeaseTimers() {
	r.leaseTimer.Stop()
	r.unprotTimer.Stop()
}

// leaseGranted renews the lease from a grant stamped with its send
// time sentAt: the term is measured at the granting end, so the
// primary's copy of the lease can only expire earlier than the
// backup's promotion barrier, never later — that asymmetry (plus the
// skew margin) is the whole safety argument. A grant arriving in the
// same simulated instant the lease lapses wins: expiry events are
// scheduled, grant deliveries run first in insertion order, and a
// renewed leaseExpiresAt makes the stale expiry event a no-op.
func (r *Replicator) leaseGranted(sentAt simtime.Time) {
	if !r.Cfg.Lease.Enabled || r.stopped {
		return
	}
	switch r.leaseState {
	case LeaseUnprotected, LeaseSuperseded:
		// A pair that declared itself unprotected (or stood down) never
		// resurrects its lease; only a full re-protection starts a new
		// one.
		return
	}
	exp := sentAt.Add(leaseTerm)
	if exp <= r.leaseExpiresAt {
		return
	}
	r.leaseExpiresAt = exp
	if r.leaseState == LeaseSelfFenced {
		r.unfence()
	}
	r.armLeaseExpiry()
}

func (r *Replicator) leaseExpired() {
	// leaseGranted re-arms the timer at every new expiry, so it fires
	// only at leaseExpiresAt.
	if r.stopped || r.leaseState != LeaseHeld {
		return
	}
	r.selfFence()
}

// selfFence holds the release path: checkpoints continue and acks still
// advance the ack watermarks, but no buffered output reaches a client
// until a grant returns — the covered pipeline runs stay in flight and
// the log release stays below its ack watermark. New connections die
// with the same stroke — their SYN-ACKs are buffered egress like
// everything else.
func (r *Replicator) selfFence() {
	r.leaseState = LeaseSelfFenced
	r.SelfFences.Inc()
	if r.Cfg.Degrade == Availability {
		r.unprotTimer.Reset(unprotectedAfter)
	}
}

// unfence resumes releases after a grant ended a fence: the epochs and
// log segments the fence held below the ack watermarks flow out, in
// order, through the ordinary release path (recomputeWatermarks).
func (r *Replicator) unfence() {
	r.leaseState = LeaseHeld
	r.unprotTimer.Stop()
	r.recomputeWatermarks()
}

// releaseAuthorized gates every output-release path. With the lease
// disabled it is always true — exactly the pre-lease behavior the
// split-brain regression test shows produces a dual primary.
func (r *Replicator) releaseAuthorized() bool {
	return r.leaseState != LeaseSelfFenced && r.leaseState != LeaseSuperseded
}

// unprotectDeadline fires unprotectedAfter into a fence under the
// Availability policy.
func (r *Replicator) unprotectDeadline() {
	if r.stopped || r.quiesced || r.leaseState != LeaseSelfFenced || r.Ctr.Stopped() {
		return
	}
	r.declareUnprotected()
}

// declareUnprotected is the Availability policy's escape hatch: the
// backup has been unreachable for so long that the primary declares
// the pair unprotected and resumes serving without acks (unprotect).
// Heartbeats keep flowing: a backup that can still hear us must never
// promote, and a heal is detected by the control plane (or campaign),
// which re-protects the pair with a full resync.
func (r *Replicator) declareUnprotected() {
	r.Unprotects.Inc()
	r.unprotect()
}

// unprotect is the one way a primary leaves protection, shared by the
// Availability policy (declareUnprotected) and the control plane's
// fence of dead backups (FenceBackup). Buffered output flushes (it
// reflects state nobody will ever fail over past), checkpointing and
// log recording stop, the DRBD primary end detaches so disk writes
// stay local, and every slot's queued transfer traffic is cancelled so
// it cannot occupy the shared replication NIC.
func (r *Replicator) unprotect() {
	if r.Cfg.Lease.Enabled {
		r.leaseState = LeaseUnprotected
	}
	r.cancelLeaseTimers()
	r.epochTimer.Stop()
	r.quiesced = true
	r.inflight.Reset()
	if r.rec != nil {
		r.rec.uninstall()
	}
	r.Ctr.Qdisc.SetReplicating(false)
	_ = r.Cluster.DRBDPrimary.Detach()
	for _, s := range r.chain {
		s.cancelFlows()
	}
}

// supersededSeen handles the promoted backup's supersede notice on the
// old primary: discard the buffered output (it reflects epochs the
// backup never committed — the promoted side's state is authoritative
// now), stop replicating, and disconnect from the client LAN for good.
// Returns true so the caller acknowledges the stand-down; repeats are
// idempotent.
func (r *Replicator) supersededSeen() bool {
	if !r.Cfg.Lease.Enabled {
		return false
	}
	if r.leaseState == LeaseSuperseded {
		return true
	}
	r.leaseState = LeaseSuperseded
	r.cancelLeaseTimers()
	if !r.stopped {
		// Discard before Stop: Stop flushes the qdisc via
		// SetReplicating(false), and unacked output must never escape a
		// superseded replica.
		r.Ctr.Qdisc.DiscardPending()
		r.Stop()
	}
	r.Ctr.Disconnect()
	return true
}

// LeaseState returns the primary's current lease state.
func (r *Replicator) LeaseState() LeaseState { return r.leaseState }

// Unprotected reports whether the Availability policy (or a control
// plane fence of a dead backup) declared the pair unprotected.
func (r *Replicator) Unprotected() bool { return r.leaseState == LeaseUnprotected }

// Serving reports whether this replica is releasing output to clients
// at this instant: the container runs and no lease state forbids
// release. With the lease disabled a running primary always serves —
// the exposure the at-most-one-serving oracle exists to catch.
func (r *Replicator) Serving() bool {
	if r.Ctr.Stopped() {
		return false
	}
	return r.releaseAuthorized()
}

// --- Backup side -------------------------------------------------------------

// promotionBarrier returns the earliest instant promotion is allowed:
// the last grant this backup ever sent (delivered or not — the send is
// what starts the primary's term, and an undelivered grant only makes
// the primary fence sooner) plus the full term plus the skew margin.
func (b *BackupAgent) promotionBarrier() simtime.Time {
	return b.lastGrantSent.Add(leaseTerm + leaseSkewMargin)
}

// RaiseGrantFloor raises this agent's promotion-barrier base to cover
// grants it did not itself send: the fleet detector, promoting one
// replica of a chain whose every member grants, raises it to
// Replicator.ChainLastGrantSent first.
func (b *BackupAgent) RaiseGrantFloor(t simtime.Time) {
	if t > b.lastGrantSent {
		b.lastGrantSent = t
	}
}

// PromotionPending reports a conviction waiting out the lease barrier.
func (b *BackupAgent) PromotionPending() bool { return b.promotePending }

// promoteBarrierReached fires when the last-granted lease has provably
// expired (plus skew). If the primary's heartbeats are still stale the
// promotion proceeds; if they recovered while we waited — the
// partition healed mid-election — the promotion aborts and the backup
// resumes granting and acknowledging.
func (b *BackupAgent) promoteBarrierReached() {
	if !b.promotePending || b.recovered || b.halted {
		b.promotePending = false
		return
	}
	b.promotePending = false
	if b.cl.Clock.Now().Sub(b.lastHeartbeat) > DetectionDeadline {
		b.doRecover()
		return
	}
	b.resumeAfterAbortedPromotion()
}

// resumeAfterAbortedPromotion re-drives the commit/ack loop over
// whatever buffered epochs arrived while acks were suppressed, in
// epoch order (tryAck chains through any in-order run itself).
func (b *BackupAgent) resumeAfterAbortedPromotion() {
	eps := make([]uint64, 0, len(b.pending))
	for e := range b.pending {
		eps = append(eps, e)
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
	for _, e := range eps {
		b.tryAck(e)
	}
	if b.cfg.Opts.RecordReplay {
		b.ackLog()
	}
}

// Serving reports whether the promoted container is live on the
// network at this instant.
func (b *BackupAgent) Serving() bool {
	return b.recovered && b.networkLive && b.RestoredCtr != nil && !b.RestoredCtr.Stopped()
}

// startSupersedeBeacon begins announcing the promotion toward the old
// primary once the restored container's network is live. A fenced
// primary on the far side of a healing partition stands down on
// receipt and acknowledges; the beacon stops on the acknowledgment or
// after supersedeFor, whichever is first. The beacon rides the ack
// link (backup→primary) as express packets; while the partition
// persists they are simply dropped.
func (b *BackupAgent) startSupersedeBeacon() {
	if !b.cfg.Lease.Enabled {
		return
	}
	b.beaconTicks = int(supersedeFor / heartbeatInterval)
	b.beacon = simtime.NewTicker(b.cl.Clock, heartbeatInterval, func() {
		if b.standDown || b.beaconTicks <= 0 {
			b.beacon.Stop()
			return
		}
		b.beaconTicks--
		b.cl.AckLink.TransferExpress(16, func() {
			if b.r.supersededSeen() {
				// Stand-down acknowledgment rides the old
				// primary→backup direction.
				b.cl.ReplLink.TransferExpress(16, func() { b.standDown = true })
			}
		})
	})
}
