package cluster

import (
	"nilicon/internal/core"
	"nilicon/internal/simdisk"
)

// Rolling re-protection (DESIGN.md §9): pairs left Degraded by a
// failover or a fence queue here, and a pump ticker re-protects them
// onto spare capacity one admission slot at a time. The admission limit
// (Params.MaxConcurrentResyncs) is what keeps a host failure from
// flooding every replication NIC with simultaneous initial
// synchronizations: an initial sync ships the pair's full memory image
// and disk, and N of them at once would starve the steady-state epoch
// streams of healthy pairs sharing those NICs (the TransferScheduler's
// round-robin keeps them *fair*, but fairness across N+1 flows still
// divides the NIC N+1 ways).

// enqueueReprotect appends a pair to the re-protection queue (FIFO:
// pairs recover protection in the order they lost it).
func (f *Fleet) enqueueReprotect(idx int) {
	for _, q := range f.reprotectQ {
		if q == idx {
			return
		}
	}
	f.reprotectQ = append(f.reprotectQ, idx)
}

// dequeueReprotect removes a pair from the queue (it was lost).
func (f *Fleet) dequeueReprotect(idx int) {
	for i, q := range f.reprotectQ {
		if q == idx {
			f.reprotectQ = append(f.reprotectQ[:i], f.reprotectQ[i+1:]...)
			return
		}
	}
}

// removeResync removes a pair from the active-resync set.
func (f *Fleet) removeResync(idx int) {
	for i, q := range f.resyncActive {
		if q == idx {
			f.resyncActive = append(f.resyncActive[:i], f.resyncActive[i+1:]...)
			return
		}
	}
}

// pumpReprotect is the re-protection tick: retire completed initial
// syncs and chain repairs, queue under-strength chains for repair, then
// admit queued pairs up to the concurrency limit. Chain repairs share
// the same admission slots as classic re-protections — a repair ships
// the same full-resync baseline and competes for the same NICs.
func (f *Fleet) pumpReprotect() {
	if f.quiesced {
		return
	}
	for i := 0; i < len(f.resyncActive); {
		pr := f.Pairs[f.resyncActive[i]]
		if pr.State == Resyncing {
			if _, ok := pr.Repl.Backup.CommittedEpoch(); ok {
				pr.State = Protected
				f.resyncActive = append(f.resyncActive[:i], f.resyncActive[i+1:]...)
				f.eventf("protected pair=%s primary=%s backup=%s", pr.ID,
					f.Hosts[pr.PrimaryHost].Name, f.Hosts[pr.ReplicaHosts[0]].Name)
				continue
			}
		} else if pr.State == Protected && pr.repairSlot >= 0 {
			// A repair replica joins the watermarks at its first ack
			// (core: catchingUp cleared); that is the repair's commit.
			if _, ok := pr.Repl.ReplicaAcked(pr.repairSlot); ok {
				slot := pr.repairSlot
				pr.repairSlot = -1
				f.resyncActive = append(f.resyncActive[:i], f.resyncActive[i+1:]...)
				f.eventf("replica-joined pair=%s slot=%d backup=%s live=%d", pr.ID,
					slot, f.Hosts[pr.ReplicaHosts[slot]].Name, f.liveBackups(pr))
				continue
			}
		}
		i++
	}
	// Chains below their configured strength (post-failover rebuilds
	// grow back from a one-replica chain; replica-host fences fence
	// slots) queue for repair; enqueueReprotect dedups.
	for _, pr := range f.Pairs {
		if pr.State == Protected && pr.repairSlot < 0 {
			if live := f.liveBackups(pr); live > 0 && live < f.Params.Replicas-1 {
				f.enqueueReprotect(pr.Index)
			}
		}
	}
	for len(f.reprotectQ) > 0 && len(f.resyncActive) < f.Params.MaxConcurrentResyncs {
		idx := f.reprotectQ[0]
		pr := f.Pairs[idx]
		switch {
		case pr.State == Degraded:
			target := f.pickHost(pr)
			if target < 0 {
				// No host has capacity right now (e.g. spares still absorbing
				// other re-protections); retry on the next tick rather than
				// head-of-line-dropping the pair.
				return
			}
			f.reprotectQ = f.reprotectQ[1:]
			if !f.startReprotect(pr, target) {
				// The start failed and the pair re-queued; admitting more
				// this tick could loop on the same failing pick forever.
				return
			}
		case pr.State == Protected && pr.repairSlot < 0 && f.liveBackups(pr) < f.Params.Replicas-1:
			target := f.pickHost(pr)
			if target < 0 {
				return
			}
			f.reprotectQ = f.reprotectQ[1:]
			if !f.startChainRepair(pr, target) {
				return
			}
		default:
			f.reprotectQ = f.reprotectQ[1:]
		}
	}
}

// probeTarget is the placement-time liveness check: before shipping a
// resync baseline at a chosen host, the control plane senses the
// target's link carrier — the attach handshake a real cluster would
// fail with a timeout. A dead SPARE is otherwise invisible (it hosts no
// agents, so the heartbeat detector has no evidence about it); the
// failed probe is what discovers it, and declaring it dead keeps every
// later pick away from the corpse. This reads physical link state, not
// the injected ground truth — the same signal core.ReprotectOnto
// refuses to build over.
func (f *Fleet) probeTarget(pr *Pair, target int) bool {
	tgt := f.Hosts[target]
	if !tgt.NIC.Down() {
		return true
	}
	f.eventf("probe-failed pair=%s target=%s", pr.ID, tgt.Name)
	f.enqueueReprotect(pr.Index)
	if tgt.Alive {
		f.declareHostDead(tgt)
	}
	return false
}

// pickHost chooses the host for a new replica of pr's chain: an alive
// host with capacity that is no live member of the chain. The members
// are its primary and, for a Protected chain, its unfenced slots (a
// Degraded pair's replicator is the pre-failover one, so its slots are
// not members). Hosts in zones no member occupies are preferred (pass
// 0); only when no such host exists does the pick fall back to an
// occupied zone (pass 1), which with one zone is every host. Within a
// pass: least reserved pages, ties to the lowest index — deterministic,
// like every placement.
func (f *Fleet) pickHost(pr *Pair) int {
	used := map[int]bool{pr.PrimaryHost: true}
	usedZone := map[int]bool{f.Hosts[pr.PrimaryHost].Zone: true}
	if pr.State == Protected {
		for i, rh := range pr.ReplicaHosts {
			if !pr.Repl.ReplicaFenced(i) {
				used[rh] = true
				usedZone[f.Hosts[rh].Zone] = true
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		best := -1
		for _, h := range f.Hosts {
			if !h.Alive || used[h.Index] {
				continue
			}
			if pass == 0 && usedZone[h.Zone] {
				continue
			}
			if h.PagesUsed+pairBackupPgs > hostPages {
				continue
			}
			if best < 0 || h.PagesUsed < f.Hosts[best].PagesUsed {
				best = h.Index
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1
}

// startChainRepair grows a running chain back toward full strength:
// attach a fresh DRBD secondary and replica view on the target host and
// let core.AttachReplica run the repair — the new slot starts
// non-voting (catchingUp), a full-resync baseline is armed for the next
// checkpoint, and the slot joins the watermarks at its first ack. The
// healthy replicas' release path never stalls on the repair.
func (f *Fleet) startChainRepair(pr *Pair, target int) bool {
	if !f.probeTarget(pr, target) {
		return false
	}
	ph := f.Hosts[pr.PrimaryHost]
	tgt := f.Hosts[target]
	bv := simdisk.NewDisk()
	view := f.view(ph, tgt, pr.View.DRBDPrimary)
	view.DRBDBackup = pr.View.DRBDPrimary.AttachSecondary(bv, ph.NIC)
	slot := pr.Repl.AttachReplica(view)
	pr.repairSlot = slot
	pr.ReplicaHosts = append(pr.ReplicaHosts, target)
	pr.Reprotects++
	tgt.PagesUsed += pairBackupPgs
	f.resyncActive = append(f.resyncActive, pr.Index)
	f.eventf("chain-repair-start pair=%s slot=%d primary=%s backup=%s queue=%d",
		pr.ID, slot, ph.Name, tgt.Name, len(f.reprotectQ))
	return true
}

// startReprotect builds the pair's new Cluster view over the two hosts'
// shared NICs and starts a fresh replicator via core.ReprotectOnto. The
// initial sync traffic rides the pair's own flows on the primary NIC's
// shared scheduler, so co-located healthy pairs keep their round-robin
// share throughout.
func (f *Fleet) startReprotect(pr *Pair, target int) bool {
	if !f.probeTarget(pr, target) {
		return false
	}
	cur := f.Hosts[pr.PrimaryHost]
	tgt := f.Hosts[target]
	view := f.view(cur, tgt, nil)
	cfg := f.pairConfig(pr)
	repl, err := core.ReprotectOnto(view, pr.Ctr, pr.Vol, cfg)
	if err != nil {
		// The probe passed but the view build still failed (e.g. the
		// pair's own primary NIC went down this tick); requeue and let
		// the next tick re-pick.
		f.eventf("reprotect-retry pair=%s err=%v", pr.ID, err)
		f.enqueueReprotect(pr.Index)
		return false
	}
	repl.SetExternalArbiter()
	repl.Timeline = f.Timeline
	pr.View = view
	pr.Repl = repl
	pr.ReplicaHosts = []int{target}
	pr.repairSlot = -1
	pr.State = Resyncing
	pr.Reprotects++
	tgt.PagesUsed += pairBackupPgs
	f.resyncActive = append(f.resyncActive, pr.Index)
	repl.Start()
	f.eventf("reprotect-start pair=%s primary=%s backup=%s queue=%d",
		pr.ID, cur.Name, tgt.Name, len(f.reprotectQ))
	return true
}
