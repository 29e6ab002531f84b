package cluster

import "nilicon/internal/core"

// Host-level failure detection (DESIGN.md §9): the fleet aggregates the
// per-pair heartbeat machinery of internal/core into a verdict about
// hosts. A host is declared dead only when EVERY pair with an agent on
// it reports staleness — a single pair's silence could be that pair's
// own problem, but a host that has gone quiet on all of its pairs at
// once has lost power or its NIC. The detector reads nothing but the
// per-pair evidence (never the injected ground truth, Host.killed);
// chaos oracles compare its belief against the truth from outside.
//
// Evidence per pair, by the dead candidate's role:
//
//   - primary on the host: the pair's backup agent tracks the last
//     primary heartbeat (BackupAgent.LastHeartbeat). Backups that have
//     not committed an initial sync yet self-reset that clock (they
//     cannot distinguish a dead primary from a long first checkpoint)
//     and therefore contribute no evidence either way.
//   - backup on the host: the pair's primary tracks each slot's last
//     reverse liveness beat (Replicator.LastReplicaBeat), which every
//     backup under an external arbiter sends.
//
// Declaring a host dead triggers, in the same virtual-time instant, a
// concurrent failover of every Protected pair whose primary ran there
// and a fencing (FenceBackup) of every pair backed there; the fenced
// pairs queue for re-protection (reprotect.go).

// hostEvidence tallies one host's liveness evidence. excluded filters
// out observers sitting on the given suspect hosts: a stale heartbeat
// at backup B about pair P→B is ambiguous — it means "P dead OR B
// dead" — so an observer that is itself suspected of being dead proves
// nothing about the host it observes. An observer is stale after
// core.DetectionDeadline of silence, the per-pair detector's threshold.
func (f *Fleet) hostEvidence(h *Host, excluded map[int]bool) (evidence, stale int) {
	now := f.Clock.Now()
	for _, pr := range f.Pairs {
		if pr.State != Protected && pr.State != Resyncing {
			continue
		}
		if h.Index == pr.PrimaryHost {
			// Observers: every unfenced chain replica. Replicas that have
			// not committed yet self-reset their heartbeat clock (they
			// cannot tell a dead primary from a long first checkpoint) and
			// so contribute nothing.
			for i, rh := range pr.ReplicaHosts {
				if pr.Repl.ReplicaFenced(i) {
					continue
				}
				if !f.Hosts[rh].Alive || excluded[rh] {
					continue
				}
				ag := pr.Repl.ReplicaAgent(i)
				if _, ok := ag.CommittedEpoch(); !ok {
					continue
				}
				evidence++
				if now.Sub(ag.LastHeartbeat()) > core.DetectionDeadline {
					stale++
				}
			}
			continue
		}
		// Observer: the pair's primary replicator (reverse beats), once
		// per chain slot hosted on the candidate.
		for i, rh := range pr.ReplicaHosts {
			if rh != h.Index || pr.Repl.ReplicaFenced(i) {
				continue
			}
			if !f.Hosts[pr.PrimaryHost].Alive || excluded[pr.PrimaryHost] {
				continue
			}
			evidence++
			if now.Sub(pr.Repl.LastReplicaBeat(i)) > core.DetectionDeadline {
				stale++
			}
		}
	}
	return evidence, stale
}

// checkHosts is the fleet detector tick: a two-round sweep. Round one
// collects the suspect set from unfiltered evidence; round two
// re-tallies each suspect counting only observers on non-suspect hosts
// and declares the ones whose independent evidence is still unanimous.
// Without the second round, two hosts dying at once poison each other's
// neighbors: host A's backup agents for pairs primaried on healthy host
// B go silent when A dies, and B would be declared dead on A's corpse's
// testimony alone. Declarations happen after the whole sweep, so every
// victim of a concurrent multi-host failure is declared in the same
// virtual-time instant.
func (f *Fleet) checkHosts() {
	if f.quiesced {
		return
	}
	suspects := make(map[int]bool)
	for _, h := range f.Hosts {
		if !h.Alive {
			continue
		}
		if evidence, stale := f.hostEvidence(h, nil); evidence > 0 && stale == evidence {
			suspects[h.Index] = true
		}
	}
	var dead []*Host
	for _, h := range f.Hosts {
		if !suspects[h.Index] {
			continue
		}
		others := make(map[int]bool, len(suspects))
		for s := range suspects {
			if s != h.Index {
				others[s] = true
			}
		}
		if evidence, stale := f.hostEvidence(h, others); evidence > 0 && stale == evidence {
			dead = append(dead, h)
		}
	}
	for _, h := range dead {
		f.declareHostDead(h)
	}
}

// declareHostDead flips the control plane's belief and transitions every
// pair touching the host. All failovers triggered here run in the same
// virtual-time instant — the concurrent-failover property the fleet
// demo asserts.
func (f *Fleet) declareHostDead(h *Host) {
	h.Alive = false
	h.PagesUsed = 0
	f.eventf("host-dead host=%s", h.Name)
	for _, pr := range f.Pairs {
		if h.Index == pr.PrimaryHost {
			f.primaryHostDied(pr)
			continue
		}
		for i, rh := range pr.ReplicaHosts {
			if rh == h.Index && !pr.Repl.ReplicaFenced(i) {
				f.replicaHostDied(pr, h.Index)
				break
			}
		}
	}
}

// primaryHostDied handles a pair whose primary ran on the dead host.
func (f *Fleet) primaryHostDied(pr *Pair) {
	switch pr.State {
	case Protected:
		f.chainPrimaryDied(pr)
	case Resyncing:
		// The new backup has no committed state to recover to.
		pr.Repl.Stop()
		pr.Repl.Backup.Halt()
		f.removeResync(pr.Index)
		if bh := f.Hosts[pr.ReplicaHosts[0]]; bh.Alive {
			bh.PagesUsed -= pairBackupPgs
		}
		pr.State = Lost
		f.eventf("pair-lost pair=%s reason=primary-died-during-resync", pr.ID)
	case Degraded:
		f.dequeueReprotect(pr.Index)
		pr.State = Lost
		f.eventf("pair-lost pair=%s reason=unprotected-primary-died", pr.ID)
	}
}

// chainPrimaryDied fails over a chain of any width (a pair is the
// one-replica chain): elect the most-caught-up surviving replica
// (highest committed epoch, ties to the lowest slot), raise its
// promotion barrier over every grant any chain member ever sent (the
// old primary may be holding a lease from any of them; with one
// grantor the floor is its own), and recover it. The losing replicas
// are halted — the elected replica's state supersedes theirs the
// instant recovery commits, and halting them before Recover guarantees
// at most one serving under the fleet's central arbitration.
func (f *Fleet) chainPrimaryDied(pr *Pair) {
	if pr.repairSlot >= 0 {
		f.removeResync(pr.Index)
		pr.repairSlot = -1
	}
	best, bestEpoch := -1, uint64(0)
	for i, rh := range pr.ReplicaHosts {
		if pr.Repl.ReplicaFenced(i) || !f.Hosts[rh].Alive {
			continue
		}
		ag := pr.Repl.ReplicaAgent(i)
		if ag.Halted() || ag.Recovered() {
			// Halted: its host died in the same sweep (not yet declared).
			continue
		}
		e, ok := ag.CommittedEpoch()
		if !ok {
			continue
		}
		if best < 0 || e > bestEpoch {
			best, bestEpoch = i, e
		}
	}
	if best < 0 {
		pr.State = Lost
		f.eventf("pair-lost pair=%s reason=no-replica-survives", pr.ID)
		return
	}
	pr.State = FailingOver
	pr.electedSlot = best
	f.eventf("failover-start pair=%s from=%s to=%s slot=%d epoch=%d",
		pr.ID, f.Hosts[pr.PrimaryHost].Name, f.Hosts[pr.ReplicaHosts[best]].Name, best, bestEpoch)
	for i, rh := range pr.ReplicaHosts {
		if i == best || pr.Repl.ReplicaFenced(i) {
			continue
		}
		pr.Repl.ReplicaAgent(i).Halt()
		if hh := f.Hosts[rh]; hh.Alive {
			hh.PagesUsed -= pairBackupPgs
		}
	}
	ag := pr.Repl.ReplicaAgent(best)
	ag.RaiseGrantFloor(pr.Repl.ChainLastGrantSent())
	ag.Recover()
	if err := ag.RecoverError(); err != nil {
		pr.State = Lost
		f.eventf("pair-lost pair=%s err=%v", pr.ID, err)
	} else if !ag.Recovered() && !ag.PromotionPending() {
		pr.State = Lost
		f.eventf("pair-lost pair=%s reason=elected-replica-cannot-recover", pr.ID)
	}
}

// replicaHostDied handles a pair with chain replicas on the dead host:
// fence every slot hosted there. A chain that keeps at least one
// unfenced replica stays Protected (the quorum machinery re-gates
// release on the survivors) and queues for chain repair; losing the
// last replica degrades the pair onto the classic re-protection path.
func (f *Fleet) replicaHostDied(pr *Pair, host int) {
	switch pr.State {
	case Protected, Resyncing:
		if pr.State == Resyncing {
			f.removeResync(pr.Index)
		}
		for i, rh := range pr.ReplicaHosts {
			if rh != host || pr.Repl.ReplicaFenced(i) {
				continue
			}
			pr.Repl.FenceReplica(i)
			pr.Fences++
			if pr.repairSlot == i {
				pr.repairSlot = -1
				f.removeResync(pr.Index)
			}
		}
		if pr.State == Protected && f.liveBackups(pr) > 0 {
			// Survivors keep the chain protected; regrow it.
			f.enqueueReprotect(pr.Index)
			f.eventf("fence-replica pair=%s primary=%s live=%d",
				pr.ID, f.Hosts[pr.PrimaryHost].Name, f.liveBackups(pr))
			return
		}
		pr.State = Degraded
		f.enqueueReprotect(pr.Index)
		f.eventf("fence pair=%s primary=%s", pr.ID, f.Hosts[pr.PrimaryHost].Name)
	case FailingOver:
		if pr.ReplicaHosts[pr.electedSlot] != host {
			// A losing (already halted) replica's host died mid-restore;
			// the elected replica is unaffected.
			return
		}
		// The restore target died mid-restore; nothing survives.
		pr.State = Lost
		f.eventf("pair-lost pair=%s reason=died-mid-restore", pr.ID)
	}
}

// pairRecovered is the per-pair OnRecovered callback: the backup's
// restore completed and the container's network is live on the former
// backup host.
func (f *Fleet) pairRecovered(pr *Pair, rc core.RestoredContainer, stats core.RecoveryStats) {
	pr.Ctr = rc
	pr.Failovers++
	pr.LastFailover = &stats
	f.FailoverLatencies.Add(stats.NetworkLiveAt.Sub(stats.DetectedAt).Seconds())

	// The pair's home moves to the surviving host; its backup reservation
	// there becomes the primary's (same page count).
	slot := pr.electedSlot
	oldPrimary := pr.PrimaryHost
	pr.PrimaryHost = pr.ReplicaHosts[slot]
	// The authoritative volume is now the promoted replica's end.
	pr.Vol = pr.Repl.ReplicaView(slot).DRBDBackup.Local
	pr.State = Degraded
	pr.electedSlot = -1
	f.enqueueReprotect(pr.Index)
	f.eventf("recovered pair=%s on=%s epoch=%d from=%s", pr.ID, f.Hosts[pr.PrimaryHost].Name,
		stats.CommittedEpoch, f.Hosts[oldPrimary].Name)
}

// KillHost injects a host power loss (ground truth; chaos host-fault
// schedules call this). The host's NIC goes down, containers running
// there stop, and agents hosted there halt. Detection and the resulting
// failovers/fences are the detector's job — KillHost deliberately
// touches no control-plane state.
func (f *Fleet) KillHost(i int) {
	h := f.Hosts[i]
	if h.killed {
		return
	}
	h.killed = true
	h.NIC.SetDown(true)
	for _, pr := range f.Pairs {
		if i == pr.PrimaryHost {
			// Mirror faultinject.HardKill: the veth detaches (buffered
			// output can never escape), execution stops, and the epoch
			// engine quiesces so a dead host schedules no new checkpoints.
			if pr.Ctr != nil && pr.Ctr.Host == h.H {
				pr.Ctr.Disconnect()
				pr.Ctr.Stop()
			}
			pr.Repl.Quiesce()
			continue
		}
		for s, rh := range pr.ReplicaHosts {
			if rh == i {
				pr.Repl.ReplicaAgent(s).Halt()
			}
		}
	}
	f.eventf("kill-host host=%s", h.Name)
}

// KillZone injects a simultaneous power loss of every not-yet-killed
// host in one failure domain (zone-kill campaigns). With zone-anti-
// affine chain placement no chain loses more than one replica to it.
func (f *Fleet) KillZone(z int) {
	for _, h := range f.Hosts {
		if h.Zone == z && !h.killed {
			f.KillHost(h.Index)
		}
	}
}
