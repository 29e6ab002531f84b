package chaos

import (
	"fmt"
	"sort"

	"nilicon/internal/cluster"
	"nilicon/internal/core"
)

// Which oracle applies to which topology (DESIGN.md §6): output-commit,
// at-most-one-serving, acked-output, convergence and replay-divergence
// run on every topology; drain-to-zero on a chain whose terminal phase
// leaves a live primary, and on every fleet; the split-brain policy
// verdicts (supersede, degrade-policy) on scripted scenarios;
// slo-windows under Config.Traffic; determinism wherever the campaign
// runs twice (VerifySeed). Every campaign's clients replay a trace
// through workloads.Conn against the benchmarks' workloads.Server, so
// acked-output judges the same client path the benchmark trusts.

// sampled accumulates one continuously sampled oracle: how many
// samples, how many violated, and the first violation's detail.
type sampled struct {
	checks, violations int
	first              string
}

func (s *sampled) check(ok bool, detail func() string) {
	s.checks++
	if !ok {
		s.violations++
		if s.first == "" {
			s.first = detail()
		}
	}
}

func (s *sampled) verdict(oracle, violations string) Verdict {
	return Verdict{Oracle: oracle, OK: s.violations == 0,
		Detail: fmt.Sprintf("%d samples, %d %s %s", s.checks, s.violations, violations, s.first)}
}

// sample is the 1 ms oracle tick. Output-commit: the released epoch
// never exceeds the quorum-th-highest committed epoch across a chain's
// unfenced slots (quorumCommitted). At-most-one-serving: no more than
// one side of any chain releases output at any instant. Each chain is
// judged on its current replicator generation — after a reprotect or a
// fleet re-protection the previous generation is out of the picture.
// Under Config.Traffic the same tick is the limiting-factor sampler.
func (c *campaign) sample() {
	now := int64(c.clock.Now())
	c.eachGroup(func(who string, r *core.Replicator, live bool) {
		if rel, ok := r.ReleasedEpoch(); ok && live {
			com, comOK := quorumCommitted(r)
			c.outputCommit.check(comOK && rel <= com, func() string {
				return fmt.Sprintf("%sreleased=%d quorum-committed=%d/%v at t=%d", who, rel, com, comOK, now)
			})
		}
		n := servingCount(r)
		c.serving.check(n <= 1, func() string {
			return fmt.Sprintf("%s%d sides serving at t=%d lease=%s", who, n, now, r.LeaseState())
		})
	})
	if c.cfg.Traffic != nil {
		c.sampleTraffic()
	}
}

// quorumCommitted returns the quorum-th-highest committed epoch across
// a replicator's unfenced slots, the quorum being the number of slots
// that gate release — the epoch the chain's output release is allowed
// to reach — and whether that many commits exist at all. For a classic
// pair (one slot, quorum 1) it reduces exactly to
// Backup.CommittedEpoch. Comparing against any single slot would be
// wrong in both directions: release may legitimately run ahead of a
// repair replica still catching up (it does not gate release yet), and
// a release covered by one slot but not by every participant would be
// a real violation this formulation catches.
func quorumCommitted(r *core.Replicator) (uint64, bool) {
	var coms []uint64
	for i := 0; i < r.Replicas(); i++ {
		if r.ReplicaFenced(i) {
			continue
		}
		if com, ok := r.ReplicaAgent(i).CommittedEpoch(); ok {
			coms = append(coms, com)
		}
	}
	q := r.Quorum()
	if len(coms) < q {
		return 0, false
	}
	sort.Slice(coms, func(a, b int) bool { return coms[a] > coms[b] })
	return coms[q-1], true
}

// servingCount counts how many of a replicator's sides release output
// right now: the primary plus every replica slot, fenced or not — a
// fenced slot that somehow served would be exactly the bug the
// at-most-one-serving oracle exists to catch.
func servingCount(r *core.Replicator) int {
	n := 0
	if r.Serving() {
		n++
	}
	for i := 0; i < r.Replicas(); i++ {
		if r.ReplicaAgent(i).Serving() {
			n++
		}
	}
	return n
}

// firewallSkip is the acked-output verdict for firewall-mode input
// blocking (§V-C): it drops packets during every stop phase; with the
// stop phases dominating the epoch and the client's RTO backing off to
// seconds, segments take unbounded virtual time to land in an open
// window. That multi-second client-visible latency is exactly the
// deficiency PlugInput fixes — data-path verification needs a
// configuration that buffers instead of drops.
func firewallSkip(oracle string) Verdict {
	return Verdict{Oracle: oracle, OK: true,
		Detail: "skipped: firewall input blocking drops client segments for seconds-long RTO backoffs"}
}

// who prefixes a per-chain failure detail with the fleet pair index.
func (c *campaign) who(g int) string {
	if c.pool == nil {
		return ""
	}
	return fmt.Sprintf("pair %d: ", g)
}

// quiesceDrain is the drain-to-zero epilogue: with everything healed
// and the backlog drained, stop new epochs and assert that the pipeline
// retains nothing — no in-flight epochs, and no flows or queued bytes
// on any transfer scheduler (the pair's, or every fleet host's NIC,
// dead hosts included: their schedulers drain clock-driven into their
// downed links).
func (c *campaign) quiesceDrain() {
	if c.pool != nil {
		c.pool.Quiesce()
		c.eventf("quiesce")
	} else {
		c.repl.Quiesce()
		c.eventf("quiesce epoch=%d", c.repl.Epochs())
	}
	c.clock.RunFor(quiesceAfter)

	inflight, where := 0, ""
	if c.pool != nil {
		for _, pr := range c.pool.Pairs {
			if pr.State == cluster.Protected {
				inflight += pr.Repl.InflightEpochs()
			}
		}
		where = fmt.Sprintf(" across %d hosts", len(c.pool.Hosts))
	} else {
		inflight = c.repl.InflightEpochs()
	}
	flows, queued := c.xferLoad()
	c.verdicts = append(c.verdicts, Verdict{
		Oracle: "drain-to-zero", OK: inflight == 0 && flows == 0 && queued == 0,
		Detail: fmt.Sprintf("inflight=%d flows=%d queued=%d%s after quiesce", inflight, flows, queued, where),
	})
	if c.pool == nil {
		rel, relOK := c.repl.ReleasedEpoch()
		com, comOK := c.repl.Backup.CommittedEpoch()
		c.eventf("drained inflight=%d flows=%d queued=%d released=%d/%v committed=%d/%v",
			inflight, flows, queued, rel, relOK, com, comOK)
	}
}

// xferLoad sums the flows and queued bytes on every transfer scheduler
// the campaign's replication uses.
func (c *campaign) xferLoad() (flows int, queued int64) {
	if c.pool != nil {
		return c.pool.DrainStats()
	}
	x := c.repl.Cluster.Xfer
	return x.Flows(), x.QueuedBytes()
}

// replayRecord is one failover's replay outcome, labeled for the
// verdict detail.
type replayRecord struct {
	who   string
	stats *core.ReplayStats
}

// replayRecords lists the failovers' replay stats: every chain failover
// in order, or each failed-over fleet pair's last recovery (the control
// plane keeps it).
func (c *campaign) replayRecords() []replayRecord {
	var recs []replayRecord
	if c.pool == nil {
		for i, st := range c.replays {
			recs = append(recs, replayRecord{fmt.Sprintf("failover %d", i+1), st})
		}
		return recs
	}
	for _, pr := range c.pool.Pairs {
		if pr.Failovers == 0 {
			continue
		}
		rec := replayRecord{who: "pair " + pr.ID}
		if pr.LastFailover != nil {
			rec.stats = pr.LastFailover.Replay
		}
		recs = append(recs, rec)
	}
	return recs
}

// replayVerdict is the replay-divergence oracle: under record/replay
// every failover must have replayed its committed log suffix back to
// the recorded egress digests.
func replayVerdict(failovers int, recs []replayRecord) Verdict {
	fail := func(detail string) Verdict {
		return Verdict{Oracle: "replay-divergence", OK: false, Detail: detail}
	}
	for _, r := range recs {
		if r.stats == nil {
			return fail(r.who + " produced no replay stats")
		}
		if r.stats.Diverged {
			return fail(fmt.Sprintf("%s diverged at segment %d", r.who, r.stats.DivergedSeq))
		}
	}
	return Verdict{Oracle: "replay-divergence", OK: true,
		Detail: fmt.Sprintf("%d failovers, all replayed to recorded egress digests", failovers)}
}
