package chaos

import (
	"fmt"
	"sort"
	"strings"

	"nilicon/internal/container"
	"nilicon/internal/core"
	"nilicon/internal/faultinject"
	"nilicon/internal/simtime"
	"nilicon/internal/trace"
)

// Chain campaigns run the seeded failure engine against an f+1
// replication chain (DESIGN.md §15): one primary, Replicas-1 backup
// slots each on its own failure domain, a witness arbiter on yet
// another, and output release gated on the configured commit quorum.
// On top of the pair-era oracles the chain campaign checks the two
// claims that justify the extra replicas:
//
//  1. chain output-commit: released output never runs ahead of the
//     quorum-th-highest committed epoch across the unfenced slots —
//     the generalization of "never ahead of the backup's commit";
//  2. at-most-one-serving under ANY partition geometry: zone kills,
//     witness partitions and asymmetric primary↔replica cuts, sampled
//     every simulated millisecond;
//  3. acked output survives f simultaneous host failures: Kills=1
//     takes the primary's host, Kills=2 takes the primary's host and
//     the slot-0 replica's host in the same virtual instant, and every
//     acknowledged write must still read back from the survivor.
//
// PreQuorum is the escape hatch that motivates the witness: without
// it every backup grants leases and self-promotes on its own staleness
// view, and an asymmetric cut demonstrably dual-serves — the campaign
// exists so that failure is a reproducible seed, not an argument.
type ChainConfig struct {
	Seed    int64
	Opts    core.OptSet
	OptName string
	// Replicas is the chain width including the primary (default 3:
	// one primary, two backups — the f=2 shape).
	Replicas int
	// Quorum is the commit quorum handed to core.Config.CommitQuorum:
	// 0 gates release on the chain tail (every unfenced replica), k>0
	// on the k-th fastest. Only the strict default makes the Kills=2
	// guarantee: a released epoch must be on EVERY backup for an
	// arbitrary backup to survive as the most-caught-up one.
	Quorum int
	// Kills selects the terminal phase: 1 hard-kills the primary host,
	// 2 additionally hard-kills the slot-0 replica host in the same
	// instant (the f=2 claim). Negative runs no terminal kill — the
	// geometry campaigns end with a heal-and-settle instead.
	Kills int
	// Duration is the fault-injection window (default 1.5 s).
	Duration simtime.Duration
	// Events overrides the number of transient fault events (0 draws
	// 2–6 from the seed; negative means none).
	Events int
	// FaultKinds overrides the kinds the schedule draws from. Nil
	// draws from the chain trio: zone-kill, witness-partition,
	// asym-cut. The pair-era kinds (cut-repl, cut-ack, partition,
	// oneway-pb, oneway-bp, flap) remain valid and act on slot 0.
	FaultKinds []string
	// PreQuorum omits the witness: the chain falls back to the
	// two-party protocol per slot — every backup grants leases and
	// self-promotes — which is exactly the multi-grantor hole the
	// witness closes.
	PreQuorum bool
	// Shards/Workers select the simulation engine as in Config.
	Shards  int
	Workers int
}

func (cfg *ChainConfig) defaults() {
	if cfg.Replicas < 2 {
		cfg.Replicas = 3
	}
	if cfg.Kills == 0 {
		cfg.Kills = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 1500 * simtime.Millisecond
	}
	if cfg.OptName == "" {
		cfg.OptName = "custom"
	}
	if cfg.FaultKinds == nil {
		cfg.FaultKinds = []string{"zone-kill", "witness-partition", "asym-cut"}
	}
}

type chainCampaign struct {
	cfg   ChainConfig
	clock *simtime.Clock
	views []*core.Cluster
	ctr   *container.Container
	app   *kvApp
	repl  *core.Replicator
	wit   *core.Witness
	cli   *kvClient

	sched    schedule
	trace    strings.Builder
	timeline *trace.Timeline
	verdicts []Verdict

	keysSent    int
	ackedAtStop int

	recoveredAt simtime.Time
	failovers   int

	ocChecks     int
	ocViolations int
	ocDetail     string

	svChecks     int
	svViolations int
	svDetail     string
}

// RunChain executes one chain campaign.
func RunChain(cfg ChainConfig) Result {
	cfg.defaults()
	c := &chainCampaign{cfg: cfg}
	// The schedule is drawn through the shared engine so chain seeds
	// use the same decorrelated stream as pair seeds; the terminal is
	// fixed by Kills, not drawn.
	c.sched = drawSchedule(Config{
		Seed: cfg.Seed, Duration: cfg.Duration, Events: cfg.Events,
		FaultKinds: cfg.FaultKinds, Terminal: TerminalNone,
	})
	c.build()
	c.emitHeader()
	c.execute()
	return c.finish()
}

// VerifyChainSeed runs the campaign twice and adds the determinism
// oracle: byte-identical traces.
func VerifyChainSeed(cfg ChainConfig) Result {
	a := RunChain(cfg)
	b := RunChain(cfg)
	ok := a.Trace == b.Trace && a.TimelineCSV == b.TimelineCSV
	detail := "two runs produced byte-identical traces"
	if !ok {
		detail = fmt.Sprintf("trace mismatch: run1 %d bytes, run2 %d bytes", len(a.Trace), len(b.Trace))
	}
	a.Verdicts = append(a.Verdicts, Verdict{Oracle: "determinism", OK: ok, Detail: detail})
	a.Passed = a.Passed && ok
	return a
}

func (c *chainCampaign) build() {
	sc := newEngine(c.cfg.Shards, c.cfg.Workers)
	c.clock = sc.Root()
	c.views = core.NewShardedChainViews(sc, core.ClusterParams{}, c.cfg.Replicas)
	c.ctr = c.views[0].NewProtectedContainer("chaos", "10.0.0.10", 1)
	c.app = newKVApp(c.ctr)
	c.timeline = &trace.Timeline{}

	cfg := core.DefaultConfig()
	cfg.Opts = c.cfg.Opts
	cfg.Replicas = c.cfg.Replicas
	cfg.CommitQuorum = c.cfg.Quorum
	// The lease is always on for chains: the quorum layer subsumes it
	// (the witness becomes the sole grantor), and PreQuorum keeps the
	// per-slot two-party leases precisely to demonstrate that they are
	// not enough.
	cfg.Lease = core.DefaultLease()
	cfg.Reattach = func(rc core.RestoredContainer, state any) {
		c.app.RestoreState(state)
		c.app.attach(rc)
	}
	cfg.OnRecovered = c.onRecovered
	c.repl = core.NewChainReplicator(c.views, c.ctr, cfg)
	c.repl.Timeline = c.timeline
	if !c.cfg.PreQuorum {
		c.wit = core.AttachWitness(c.repl, 0, 0)
	}
}

func (c *chainCampaign) onRecovered(rc core.RestoredContainer, stats core.RecoveryStats) {
	c.recoveredAt = c.clock.Now()
	c.failovers++
	slot := -1
	for i := 0; i < c.repl.Replicas(); i++ {
		if c.repl.ReplicaAgent(i).Recovered() {
			slot = i
			break
		}
	}
	c.eventf("recovered slot=%d epoch=%d detect=%d", slot, stats.CommittedEpoch, int64(stats.DetectedAt))
}

func (c *chainCampaign) eventf(format string, args ...any) {
	fmt.Fprintf(&c.trace, "t=%d event %s\n", int64(c.clock.Now()), fmt.Sprintf(format, args...))
}

func (c *chainCampaign) emitHeader() {
	witness := "on"
	if c.cfg.PreQuorum {
		witness = "off"
	}
	fmt.Fprintf(&c.trace, "chaos-chain seed=%d opts=%s replicas=%d quorum=%d kills=%d duration=%s witness=%s\n",
		c.cfg.Seed, c.cfg.OptName, c.cfg.Replicas, c.repl.Quorum(), c.cfg.Kills, c.cfg.Duration, witness)
	for _, ev := range c.sched.events {
		fmt.Fprintf(&c.trace, "sched at=%d kind=%s for=%d\n", int64(ev.At), ev.Kind, int64(ev.For))
	}
}

func (c *chainCampaign) execute() {
	c.repl.Start()

	oracle := simtime.NewTicker(c.clock, simtime.Millisecond, func() {
		c.checkOutputCommit()
		c.checkServing()
	})

	writeUntil := warmup + c.cfg.Duration
	c.clock.Schedule(simtime.Millisecond, func() {
		c.cli = newKVClient(c.views[0], "10.0.0.1", "10.0.0.10")
	})
	var writer *simtime.Ticker
	c.clock.Schedule(warmup, func() {
		writer = simtime.NewTicker(c.clock, writeEvery, func() {
			if simtime.Duration(c.clock.Now()) >= writeUntil {
				writer.Stop()
				return
			}
			if c.cli.sock == nil {
				return
			}
			c.cli.send(fmt.Sprintf("SET k%d v%d", c.keysSent, c.keysSent))
			c.keysSent++
		})
	})

	for _, ev := range c.sched.events {
		ev := ev
		c.clock.ScheduleAt(simtime.Time(ev.At), func() {
			c.inject(ev)
		})
	}

	c.clock.RunUntil(simtime.Time(writeUntil + terminalGap))
	c.ackedAtStop = 0
	if c.cli != nil {
		c.ackedAtStop = c.cli.okReplies()
	}
	c.eventf("writer-stopped sent=%d acked=%d", c.keysSent, c.ackedAtStop)

	switch {
	case c.cfg.Kills < 0:
		c.healAll()
		c.eventf("final-heal")
		c.clock.RunFor(settleAfter)
	case c.failovers > 0:
		// A transient geometry already tripped a (possibly illegitimate,
		// under PreQuorum) promotion; there is no point killing a primary
		// that may no longer be the serving side.
		c.eventf("terminal-kill-skipped already-failed-over")
	default:
		c.terminalKill()
		c.awaitRecovery()
	}

	c.verifyData()
	if c.cfg.Kills < 0 && c.failovers == 0 {
		c.quiesceDrain()
	}
	oracle.Stop()
}

// inject dispatches one scheduled fault. Pair-era kinds act on slot 0
// through faultinject; the chain kinds pick their victim slot by the
// deterministic highest-unfenced rule so a campaign's trace is a pure
// function of its seed.
func (c *chainCampaign) inject(ev event) {
	switch ev.Kind {
	case "zone-kill":
		c.zoneKill()
		return
	case "witness-partition":
		c.witnessPartition(ev.For)
		return
	case "asym-cut":
		c.asymCut(ev.For)
		return
	case "cut-repl":
		faultinject.CutRepl(c.repl)
	case "cut-ack":
		faultinject.CutAck(c.repl)
	case "partition":
		faultinject.Partition(c.repl)
	case "oneway-pb":
		faultinject.CutPrimaryToBackup(c.repl)
	case "oneway-bp":
		faultinject.CutBackupToPrimary(c.repl)
	case "flap":
		faultinject.FlapLinks(c.repl, c.cfg.Seed^int64(ev.At), ev.For)
	}
	c.eventf("%s for=%d", ev.Kind, int64(ev.For))
	c.clock.Schedule(ev.For, func() {
		faultinject.Heal(c.repl)
		c.eventf("heal after=%s", ev.Kind)
	})
}

// victimSlot picks the highest unfenced, unhalted slot at or above
// floor; -1 if none.
func (c *chainCampaign) victimSlot(floor int) int {
	for i := c.repl.Replicas() - 1; i >= floor; i-- {
		if !c.repl.ReplicaFenced(i) && !c.repl.ReplicaAgent(i).Halted() {
			return i
		}
	}
	return -1
}

// zoneKill burns down one replica's failure domain permanently: links
// down, host dead. Slot 0 is spared (the terminal phase owns its
// death), and the kill is skipped when it would take the last backup —
// the campaign models f failures against an f+1 chain, not total loss.
// The fence lands one detection delay later, modeling the per-replica
// failure detector a control plane runs; until then release stalls on
// the dead slot's acks under a strict quorum, which is safe, merely
// slow.
func (c *chainCampaign) zoneKill() {
	slot := c.victimSlot(1)
	if slot < 0 {
		c.eventf("zone-kill-skipped last-replica")
		return
	}
	v := c.repl.ReplicaView(slot)
	v.ReplLink.SetDown(true)
	v.AckLink.SetDown(true)
	c.repl.ReplicaAgent(slot).Halt()
	if c.wit != nil {
		c.wit.CandidacyLinks[slot].SetDown(true)
		c.wit.PromoteLinks[slot].SetDown(true)
	}
	c.eventf("zone-kill slot=%d", slot)
	detect := simtime.Duration(c.repl.Cfg.HeartbeatMisses)*c.repl.Cfg.HeartbeatInterval + 10*simtime.Millisecond
	c.clock.Schedule(detect, func() {
		c.repl.FenceReplica(slot)
		c.eventf("fence slot=%d quorum=%d", slot, c.repl.Quorum())
	})
}

// witnessPartition isolates the witness from every other failure
// domain: no grants reach the primary (it self-fences one lease term
// later), no candidacies reach the witness. Nobody serves until the
// heal — the strict-safety cost, paid honestly.
func (c *chainCampaign) witnessPartition(dur simtime.Duration) {
	if c.wit == nil {
		c.eventf("witness-partition-skipped no-witness")
		return
	}
	c.setWitnessLinks(true)
	c.eventf("witness-partition for=%d", int64(dur))
	c.clock.Schedule(dur, func() {
		c.setWitnessLinks(false)
		c.eventf("heal after=witness-partition")
	})
}

func (c *chainCampaign) setWitnessLinks(down bool) {
	c.wit.KeepAliveLink.SetDown(down)
	c.wit.GrantLink.SetDown(down)
	for _, l := range c.wit.CandidacyLinks {
		l.SetDown(down)
	}
	for _, l := range c.wit.PromoteLinks {
		l.SetDown(down)
	}
}

// asymCut severs one replica's links to the primary, both directions,
// leaving its witness links intact: the replica sees a stale primary
// and bids for promotion while the witness still hears the primary.
// With the witness the candidacy is refused and the primary serves
// alone; under PreQuorum the replica self-promotes into a dual-serve —
// the escape-hatch geometry.
func (c *chainCampaign) asymCut(dur simtime.Duration) {
	slot := c.victimSlot(0)
	if slot < 0 {
		c.eventf("asym-cut-skipped no-replica")
		return
	}
	v := c.repl.ReplicaView(slot)
	v.ReplLink.SetDown(true)
	v.AckLink.SetDown(true)
	c.eventf("asym-cut slot=%d for=%d", slot, int64(dur))
	c.clock.Schedule(dur, func() {
		v.ReplLink.SetDown(false)
		v.AckLink.SetDown(false)
		c.eventf("heal after=asym-cut slot=%d", slot)
	})
}

// healAll restores every per-slot link and the witness links.
func (c *chainCampaign) healAll() {
	for i := 0; i < c.repl.Replicas(); i++ {
		v := c.repl.ReplicaView(i)
		v.ReplLink.SetDown(false)
		v.AckLink.SetDown(false)
	}
	if c.wit != nil {
		c.setWitnessLinks(false)
	}
}

// terminalKill is the f-failure terminal: the primary's host dies —
// every link it terminates goes down, the container stops, the epoch
// engine quiesces (a dead host schedules nothing) — and with Kills=2
// the slot-0 replica's host dies in the same virtual instant. The
// witness lives on its own domain and arbitrates the succession.
func (c *chainCampaign) terminalKill() {
	for i := 0; i < c.repl.Replicas(); i++ {
		v := c.repl.ReplicaView(i)
		v.ReplLink.SetDown(true)
		v.AckLink.SetDown(true)
	}
	c.ctr.Disconnect()
	c.ctr.Stop()
	c.repl.Quiesce()
	if c.wit != nil {
		c.wit.KeepAliveLink.SetDown(true)
		c.wit.GrantLink.SetDown(true)
	}
	c.eventf("terminal-kill f=%d epoch=%d", c.cfg.Kills, c.repl.Epochs())
	if c.cfg.Kills >= 2 {
		c.repl.ReplicaAgent(0).Halt()
		if c.wit != nil {
			c.wit.CandidacyLinks[0].SetDown(true)
			c.wit.PromoteLinks[0].SetDown(true)
		}
		c.eventf("replica-kill slot=0")
	}
}

func (c *chainCampaign) awaitRecovery() {
	want := c.failovers + 1
	deadline := c.clock.Now().Add(convergeIn)
	for c.failovers < want && c.clock.Now() < deadline {
		c.clock.RunFor(5 * simtime.Millisecond)
	}
	ok := c.failovers >= want
	detail := fmt.Sprintf("failover %d converged at t=%d", c.failovers, int64(c.recoveredAt))
	if !ok {
		detail = fmt.Sprintf("failover %d did not converge within %s", want, convergeIn)
	}
	c.verdicts = append(c.verdicts, Verdict{Oracle: "convergence", OK: ok, Detail: detail})
}

// quorumCommitted returns the quorum-th-highest committed epoch across
// a replicator's unfenced slots — the epoch the chain's output release
// is allowed to reach — and whether a full quorum of commits exists at
// all. For a classic pair (one slot, quorum 1) it reduces exactly to
// Backup.CommittedEpoch.
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

// checkOutputCommit samples the chain output-commit invariant: the
// released epoch never exceeds the quorum-th-highest committed epoch
// across the unfenced slots. Comparing against slot 0 alone would be
// wrong in both directions — a quorum release may legitimately run
// ahead of one laggard's commit, and a release covered only by the
// laggard would be a real violation this formulation catches.
func (c *chainCampaign) checkOutputCommit() {
	rel, relOK := c.repl.ReleasedEpoch()
	if !relOK {
		return
	}
	c.ocChecks++
	com, comOK := quorumCommitted(c.repl)
	if !comOK || rel > com {
		c.ocViolations++
		if c.ocDetail == "" {
			c.ocDetail = fmt.Sprintf("released=%d quorum-committed=%d/%v at t=%d",
				rel, com, comOK, int64(c.clock.Now()))
		}
	}
}

// checkServing samples at-most-one-serving across the whole chain (see
// servingCount).
func (c *chainCampaign) checkServing() {
	c.svChecks++
	if n := servingCount(c.repl); n > 1 {
		c.svViolations++
		if c.svDetail == "" {
			c.svDetail = fmt.Sprintf("%d sides serving at t=%d lease=%s",
				n, int64(c.clock.Now()), c.repl.LeaseState())
		}
	}
}

// verifyData is the f-failure acked-output oracle: after the terminal
// kills, every SET the client sent must either be acknowledged and
// survive on the promoted replica, or still sit in the client's TCP
// queue and retransmit to it — so every key reads back its value.
func (c *chainCampaign) verifyData() {
	if c.cli == nil || c.keysSent == 0 {
		return
	}
	if c.cfg.PreQuorum {
		// Two sides answering the same IP make readback meaningless by
		// construction; the campaign's value is the at-most-one-serving
		// FAIL, not the data path.
		c.verdicts = append(c.verdicts, Verdict{Oracle: "acked-output", OK: true,
			Detail: "skipped: pre-quorum demo dual-serves by design"})
		return
	}
	if !c.cfg.Opts.PlugInput {
		c.verdicts = append(c.verdicts, Verdict{Oracle: "acked-output", OK: true,
			Detail: "skipped: firewall input blocking drops client segments for seconds-long RTO backoffs"})
		return
	}
	c.clock.RunFor(2 * simtime.Second)
	for i := 0; i < c.keysSent; i++ {
		c.cli.send(fmt.Sprintf("GET k%d", i))
		c.clock.RunFor(2 * simtime.Millisecond)
	}
	deadline := c.clock.Now().Add(convergeIn)
	want := c.keysSent * 2
	for len(c.cli.replies) < want && c.clock.Now() < deadline {
		c.clock.RunFor(10 * simtime.Millisecond)
	}

	ok := true
	detail := fmt.Sprintf("%d writes (%d acked pre-terminal) all readable after f=%d",
		c.keysSent, c.ackedAtStop, c.cfg.Kills)
	if len(c.cli.replies) < want {
		ok = false
		detail = fmt.Sprintf("only %d/%d replies arrived", len(c.cli.replies), want)
	} else {
		for i := 0; i < c.keysSent; i++ {
			if c.cli.replies[i] != "OK" {
				ok = false
				detail = fmt.Sprintf("SET k%d reply = %q", i, c.cli.replies[i])
				break
			}
			if got, wantV := c.cli.replies[c.keysSent+i], fmt.Sprintf("v%d", i); got != wantV {
				ok = false
				detail = fmt.Sprintf("GET k%d = %q, want %q", i, got, wantV)
				break
			}
		}
	}
	c.verdicts = append(c.verdicts, Verdict{Oracle: "acked-output", OK: ok, Detail: detail})
}

// quiesceDrain is the no-terminal epilogue: stop new epochs and assert
// nothing is retained on any slot's transfer scheduler.
func (c *chainCampaign) quiesceDrain() {
	c.repl.Quiesce()
	c.eventf("quiesce epoch=%d", c.repl.Epochs())
	c.clock.RunFor(quiesceAfter)

	inflight := c.repl.InflightEpochs()
	flows, queued := 0, int64(0)
	for _, v := range c.views {
		flows += v.Xfer.Flows()
		queued += v.Xfer.QueuedBytes()
	}
	ok := inflight == 0 && flows == 0 && queued == 0
	c.verdicts = append(c.verdicts, Verdict{
		Oracle: "drain-to-zero", OK: ok,
		Detail: fmt.Sprintf("inflight=%d flows=%d queued=%d across %d slots after quiesce",
			inflight, flows, queued, c.repl.Replicas()),
	})
}

func (c *chainCampaign) finish() Result {
	c.verdicts = append([]Verdict{{
		Oracle: "output-commit",
		OK:     c.ocViolations == 0,
		Detail: fmt.Sprintf("%d samples, %d violations %s", c.ocChecks, c.ocViolations, c.ocDetail),
	}, {
		Oracle: "at-most-one-serving",
		OK:     c.svViolations == 0,
		Detail: fmt.Sprintf("%d samples, %d dual-serving instants %s", c.svChecks, c.svViolations, c.svDetail),
	}}, c.verdicts...)

	terminal := "none"
	if c.cfg.Kills > 0 {
		terminal = fmt.Sprintf("host-kill×%d", c.cfg.Kills)
	}
	var drops int64
	for _, v := range c.views {
		drops += v.ReplLink.Drops() + v.AckLink.Drops()
	}
	res := Result{
		Seed:        c.cfg.Seed,
		OptName:     c.cfg.OptName,
		Terminal:    terminal,
		Verdicts:    c.verdicts,
		Epochs:      c.repl.Epochs(),
		Resyncs:     c.repl.Resyncs.Value(),
		LinkDrops:   drops,
		AckedWrites: c.ackedAtStop,
		SentWrites:  c.keysSent,
		Failovers:   c.failovers,
	}
	res.Passed = true
	for _, v := range c.verdicts {
		st := "PASS"
		if !v.OK {
			st = "FAIL"
			res.Passed = false
		}
		fmt.Fprintf(&c.trace, "verdict %s %s: %s\n", v.Oracle, st, v.Detail)
	}
	elections, aborts := 0, 0
	if c.wit != nil {
		elections, aborts = c.wit.Elections, c.wit.Aborts
	}
	fmt.Fprintf(&c.trace, "counters epochs=%d resyncs=%d linkdrops=%d sent=%d acked=%d failovers=%d elections=%d aborts=%d\n",
		res.Epochs, res.Resyncs, res.LinkDrops, res.SentWrites, res.AckedWrites, res.Failovers, elections, aborts)
	res.Trace = c.trace.String()
	var csv strings.Builder
	if err := c.timeline.WriteCSV(&csv); err == nil {
		res.TimelineCSV = csv.String()
	}
	return res
}
