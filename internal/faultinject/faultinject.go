// Package faultinject emulates fail-stop faults the way the paper's
// validation does (§VII-A): incoming and outgoing traffic on all of the
// primary container's network interfaces is blocked (the sch_plug
// emulation), so the container may keep executing but is invisible to
// clients and to the backup — heartbeats stop arriving and recovery is
// triggered. A hard-kill variant (the "unplugged network cable" plus
// host loss) is also provided.
package faultinject

import (
	"slices"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
)

// FailStop blocks all primary traffic: the container port, the
// replication link, and the acknowledgment link. The container keeps
// running (fail-stop from the outside world's perspective).
func FailStop(r *core.Replicator) {
	r.Ctr.Disconnect()
	r.Cluster.ReplLink.SetDown(true)
	r.Cluster.AckLink.SetDown(true)
}

// HardKill additionally stops the container's execution (host power
// loss).
func HardKill(r *core.Replicator) {
	FailStop(r)
	r.Ctr.Stop()
}

// Cut downs the chosen inter-host links without touching the
// container: a transient network fault rather than a host failure.
// Cutting the replication link (primary→backup) loses checkpoint state,
// DRBD writes and heartbeats; cutting the ack link (backup→primary)
// loses the backup's acks, resync requests, beats and lease grants, so
// the primary's output stays buffered. Both together are a full
// partition. Heal restores them.
func Cut(r *core.Replicator, repl, ack bool) {
	if repl {
		r.Cluster.ReplLink.SetDown(true)
	}
	if ack {
		r.Cluster.AckLink.SetDown(true)
	}
}

// FlapLinks schedules a seeded burst of link flaps over the next
// `total` of virtual time: both inter-host links toggle down and up at
// random points, independently drawn per link, always ending healed.
// The flap count and instants are a pure function of the seed.
func FlapLinks(r *core.Replicator, seed int64, total simtime.Duration) {
	rng := simtime.NewRand(seed)
	cl := r.Cluster
	for _, link := range []interface{ SetDown(bool) }{cl.ReplLink, cl.AckLink} {
		link := link
		flaps := 2 + rng.Intn(3)
		var at []int64
		// 2·flaps ordered toggle instants within the window: odd count
		// would end with a link down.
		for i := 0; i < 2*flaps; i++ {
			at = append(at, rng.Int63n(int64(total)))
		}
		slices.Sort(at)
		for i, t := range at {
			down := i%2 == 0
			cl.Clock.Schedule(simtime.Duration(t), func() { link.SetDown(down) })
		}
	}
}

// Heal restores both inter-host links.
func Heal(r *core.Replicator) {
	r.Cluster.ReplLink.SetDown(false)
	r.Cluster.AckLink.SetDown(false)
}

// Schedule arranges an injection at a uniformly random time within the
// middle 80% of a run of the given length, as in the paper's validation
// methodology. It returns the chosen time.
func Schedule(r *core.Replicator, runLength simtime.Duration, seed int64, inject func(*core.Replicator)) simtime.Time {
	rng := simtime.NewRand(seed)
	lo := int64(runLength) / 10
	span := int64(runLength) * 8 / 10
	at := simtime.Duration(lo + rng.Int63n(span))
	when := r.Cluster.Clock.Now().Add(at)
	r.Cluster.Clock.Schedule(at, func() { inject(r) })
	return when
}
