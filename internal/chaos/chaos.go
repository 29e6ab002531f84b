// Package chaos is a seeded, deterministic failure-campaign engine for
// the replication pipeline. A campaign is a topology × a fault schedule
// × an oracle list (DESIGN.md §6):
//
//   - the topology is one replication chain of Config.Replicas members
//     (the classic primary/backup pair is the chain of two) or, with
//     Config.Fleet, a host pool running many chains under the cluster
//     control plane;
//
//   - the schedule is drawn from the seed (transient link faults plus a
//     terminal phase), scripted (Config.Scenario: the split-brain
//     geometries), or a fleet host/zone kill;
//
//   - the oracles check the design's invariants after every event:
//
//     1. no client-visible output is released before the covering
//     checkpoint commits on the release quorum (output-commit,
//     DESIGN.md §4);
//     2. at most one side of a chain serves clients at any instant;
//     3. no acknowledged output is lost across a failover;
//     4. recovery always converges, or the campaign fails loudly;
//     5. after the faults heal and the pipeline quiesces, nothing is
//     retained: no in-flight epochs, no transfer-scheduler flows, no
//     queued bytes;
//     6. the same seed reproduces a byte-identical event trace and
//     epoch timeline.
//
// Everything runs in virtual time on the simulated cluster; a campaign
// is a pure function of its Config, which is what makes invariant
// violations found here replayable as regression tests.
package chaos

import (
	"fmt"
	"strings"

	"nilicon/internal/cluster"
	"nilicon/internal/core"
	"nilicon/internal/metrics"
	"nilicon/internal/simtime"
	"nilicon/internal/trace"
	"nilicon/internal/traffic"
)

// Terminal phases.
const (
	TerminalNone            = "none"
	TerminalKill            = "kill"
	TerminalKillMidTransfer = "kill-mid-transfer"
	TerminalReprotect       = "reprotect"
	// TerminalDoubleKill kills the primary's host and the slot-0
	// replica's host in the same instant: the f=2 claim, for chains of
	// three or more.
	TerminalDoubleKill = "double-kill"
)

// Config parameterizes one campaign.
type Config struct {
	Seed    int64
	Opts    core.OptSet
	OptName string
	// Duration is the fault-injection window (virtual time) between
	// warmup and the terminal phase. Default 1.5 s, 900 ms for a fleet;
	// a Scenario fixes its own.
	Duration simtime.Duration

	// Replicas is the chain width including the primary: 2 (the
	// default) is the classic pair; more adds backup replicas, each on
	// its own failure domain, arbitrated by a witness (DESIGN.md §15).
	// In a fleet it is every pair's chain width, and a width above 2
	// forces Fleet.KillZone.
	Replicas int
	// Quorum is core.Config.CommitQuorum: 0 gates release on the chain
	// tail (every unfenced replica), k>0 on the k-th fastest. Only the
	// strict default survives TerminalDoubleKill.
	Quorum int
	// PreQuorum omits the witness from a chain wider than a pair: every
	// backup grants leases and self-promotes on its own staleness view —
	// the multi-grantor hole the witness closes.
	PreQuorum bool
	// Fleet, when set, replaces the single chain with a host pool of
	// many chains, whose schedule is one host (or zone) kill.
	Fleet *Fleet

	// Terminal overrides the randomly drawn terminal phase of a pair
	// ("" draws from the seed; a chain wider than a pair defaults to
	// TerminalKill). TerminalReprotect needs a pair and
	// TerminalDoubleKill a wider chain.
	Terminal string
	// Events overrides the number of transient fault events (0 draws
	// 2–6 from the seed; a negative value means zero events — a clean
	// run whose only disruption is the terminal phase).
	Events int
	// FaultKinds overrides the transient-fault kinds the schedule draws
	// from. Nil keeps, for a pair, the legacy cut-repl/cut-ack/partition
	// trio with its exact historical random stream and, for a wider
	// chain, the chain geometries ("zone-kill", "witness-partition",
	// "asym-cut"). A list may also name the sustained one-way cuts
	// ("oneway-pb", "oneway-bp") and seeded link flapping ("flap"); the
	// pair-era kinds act on slot 0.
	FaultKinds []string
	// Scenario replaces the drawn schedule with a scripted split-brain
	// geometry (ScenarioPartitionHeal or ScenarioAckOutage) plus its
	// post-settle policy assertions; it fixes Duration and Terminal.
	Scenario string

	// PreLease disables output-commit lease arbitration, reverting to
	// the pre-lease detector behavior. It exists for the split-brain
	// regression: the same seed that passes the at-most-one-serving
	// oracle with the lease on demonstrably dual-serves with it off.
	PreLease bool
	// Degrade selects the lease degradation policy (StrictSafety by
	// default; ignored under PreLease).
	Degrade core.DegradePolicy

	// Traffic, when set, replaces the fixed-interval writer with an
	// open-loop replay of this trace against every chain: one TCP
	// connection per trace client, arrivals fired at trace time
	// regardless of completions, every reply judged against SLO. A
	// trace longer than Duration keeps arriving through the terminal
	// phase (a terminal kill becomes a mid-run failover), while a
	// TerminalNone campaign wants the trace to fit inside Duration so
	// arrivals do not bleed into the quiesce epilogue.
	Traffic *traffic.Trace
	// SLO configures the windowed latency judge (zero values take the
	// traffic package defaults: p99.9 < 100 ms per 100 ms window).
	SLO traffic.SLO
	// SLOSlack pads the disruption spans when the slo-windows oracle
	// checks that every violation window coincides with one. Default
	// 500 ms.
	SLOSlack simtime.Duration
}

// Fleet is the host-pool topology (DESIGN.md §9): Pairs chains placed
// over Hosts workers plus Spares, re-protected by the control plane.
type Fleet struct {
	// Defaults: 8 pairs over 4 hosts, 2 kills; Spares stays as given.
	Pairs  int
	Hosts  int
	Spares int
	// Kills is how many hosts die — all in the same instant. Victims are
	// never ring-adjacent: a pair's backup sits on the next host in the
	// placement ring, so adjacent victims would take both of a pair's
	// hosts at once, which is outside NiLiCon's fault model (one failure
	// per pair at a time).
	Kills int
	// Zones is the number of failure domains for zone-anti-affine chain
	// placement (cluster.Params.Zones).
	Zones int
	// KillZone replaces the Kills independent host victims with an
	// entire failure domain drawn from the seed: every host in the
	// chosen zone — workers and spares — dies in the same instant.
	KillZone bool
}

func (cfg *Config) defaults() {
	if cfg.OptName == "" {
		cfg.OptName = "custom"
	}
	if cfg.Replicas < 2 {
		cfg.Replicas = 2
	}
	if f := cfg.Fleet; f != nil {
		// Default a copy: callers may share one Fleet across configs.
		fc := *f
		cfg.Fleet = &fc
		fc.defaults(cfg.Replicas)
		if cfg.Duration <= 0 {
			cfg.Duration = 900 * simtime.Millisecond
		}
		return
	}
	switch cfg.Scenario {
	case "":
	case ScenarioPartitionHeal:
		cfg.Duration, cfg.Terminal = sbPartitionRun, TerminalNone
	case ScenarioAckOutage:
		cfg.Duration, cfg.Terminal = sbAckRun, TerminalNone
	default:
		panic("chaos: unknown split-brain scenario " + cfg.Scenario)
	}
	if cfg.Replicas > 2 && cfg.Terminal == "" {
		cfg.Terminal = TerminalKill
	}
	if cfg.Replicas > 2 && cfg.FaultKinds == nil {
		cfg.FaultKinds = []string{"zone-kill", "witness-partition", "asym-cut"}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 1500 * simtime.Millisecond
	}
}

func (f *Fleet) defaults(replicas int) {
	if f.Pairs <= 0 {
		f.Pairs = 8
	}
	if f.Hosts <= 0 {
		f.Hosts = 4
	}
	if f.Spares < 0 {
		f.Spares = 0
	}
	if f.Kills <= 0 {
		f.Kills = 2
	}
	if f.Zones < 1 {
		f.Zones = 1
	}
	// Zone anti-affinity is what guarantees a single instant takes at
	// most one host from any chain, which the convergence accounting
	// (and the fault model: f failures spread across domains, not two
	// hosts of one chain) depends on.
	if replicas > 2 {
		f.KillZone = true
		if f.Zones < replicas {
			f.Zones = replicas
		}
	}
	if f.KillZone && f.Zones < 2 {
		f.Zones = 2
	}
}

// Verdict is one oracle's outcome.
type Verdict struct {
	Oracle string
	OK     bool
	Detail string
}

// Result is a completed campaign.
type Result struct {
	Seed     int64
	OptName  string
	Terminal string
	Passed   bool
	Verdicts []Verdict
	// Trace is the canonical event trace; byte-identical across runs of
	// the same Config.
	Trace string
	// TimelineCSV is the per-epoch trace.Timeline rendered as CSV —
	// the second artifact the determinism oracle compares byte for
	// byte.
	TimelineCSV string

	// Campaign counters.
	Epochs      uint64
	Resyncs     int64
	LinkDrops   int64
	AckedWrites int
	SentWrites  int
	Failovers   int

	// SLO holds the windowed latency evaluation (nil unless the
	// campaign ran under Config.Traffic).
	SLO *traffic.Report
}

// Campaign phase layout (virtual time).
const (
	warmup       = 500 * simtime.Millisecond
	writeEvery   = 10 * simtime.Millisecond
	terminalGap  = 50 * simtime.Millisecond
	settleAfter  = 400 * simtime.Millisecond
	quiesceAfter = 600 * simtime.Millisecond
	convergeIn   = 3 * simtime.Second

	// A fleet warms up longer (many initial syncs share each NIC) and
	// converges slower (rolling re-protection under admission control).
	fleetWarmup     = 600 * simtime.Millisecond
	fleetConvergeIn = 6 * simtime.Second
)

type campaign struct {
	cfg      Config
	sched    schedule
	clock    *simtime.Clock
	trace    strings.Builder
	timeline *trace.Timeline
	verdicts []Verdict

	warmup, convergeIn simtime.Duration

	// Chain topology (cfg.Fleet == nil). repl is the current replicator
	// generation: a pair's reprotect terminal replaces it.
	app  *kvApp
	repl *core.Replicator
	wit  *core.Witness

	// Fleet topology (cfg.Fleet != nil).
	pool  *cluster.Fleet
	audit fleetAudit

	// The writer: one client per chain, sent[g] SETs issued so far.
	clients []*kvClient
	sent    []int
	acked   int
	latency metrics.Stream
	// traffic replaces the writer under cfg.Traffic.
	traffic   *trafficDriver
	sloReport *traffic.Report

	recoveredAt simtime.Time
	failovers   int
	replays     []*core.ReplayStats
	// kills[i] is when kill i struck; killDrains[i] when the
	// client-visible backlog it caused finished draining — the real end
	// of that disruption from the clients' point of view.
	kills       []simtime.Time
	killDrains  []simtime.Time
	killPending bool

	outputCommit, serving sampled
}

// Check reports whether cfg's topology can be built: for a fleet,
// whether its chains fit on its hosts, with the placement engine's own
// error when they do not. Run and VerifySeed panic on a config Check
// rejects.
func Check(cfg Config) error {
	cfg.defaults()
	if cfg.Fleet == nil {
		return nil
	}
	_, err := cluster.Place(cfg.fleetParams())
	return err
}

// Run executes one campaign and returns its result.
func Run(cfg Config) Result {
	cfg.defaults()
	c := &campaign{cfg: cfg, sched: drawSchedule(cfg)}
	c.build()
	c.emitHeader()
	c.execute()
	return c.finish()
}

// VerifySeed runs the campaign twice and adds the determinism oracle.
func VerifySeed(cfg Config) Result {
	return withDeterminism(Run(cfg), Run(cfg))
}

// withDeterminism adds the determinism oracle to run a: a second run of
// the same Config must reproduce its trace and its epoch timeline byte
// for byte.
func withDeterminism(a, b Result) Result {
	ok := a.Trace == b.Trace && a.TimelineCSV == b.TimelineCSV
	detail := "two runs produced byte-identical traces"
	switch {
	case a.Trace != b.Trace:
		detail = fmt.Sprintf("trace mismatch: run1 %d bytes, run2 %d bytes", len(a.Trace), len(b.Trace))
	case !ok:
		detail = fmt.Sprintf("timeline mismatch: run1 %d bytes, run2 %d bytes", len(a.TimelineCSV), len(b.TimelineCSV))
	}
	a.Verdicts = append(a.Verdicts, Verdict{Oracle: "determinism", OK: ok, Detail: detail})
	a.Passed = a.Passed && ok
	return a
}

func (c *campaign) build() {
	sc := simtime.NewEngine()
	if c.cfg.Fleet != nil {
		c.buildFleet(sc)
		return
	}
	c.warmup, c.convergeIn = warmup, convergeIn
	c.clock = sc.Root()
	views := core.NewShardedChainViews(sc, core.ClusterParams{}, c.cfg.Replicas)
	ctr := views[0].NewProtectedContainer("chaos", "10.0.0.10", 1)
	c.app = newKVApp(ctr)
	c.timeline = &trace.Timeline{}
	c.repl = core.NewChainReplicator(views, ctr, c.replConfig())
	c.repl.Timeline = c.timeline
	if c.cfg.Replicas > 2 && !c.cfg.PreQuorum {
		c.wit = core.AttachWitness(c.repl, 0, 0)
	}
}

// replConfig is the replicator configuration of every chain generation
// the campaign builds. Campaigns run with lease arbitration on by
// default: every schedule doubles as a regression for the lease path,
// and the at-most-one-serving oracle holds by protocol rather than by
// luck. On a chain the witness becomes the sole grantor; PreQuorum
// keeps the per-slot two-party leases precisely to show they are not
// enough.
func (c *campaign) replConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Opts = c.cfg.Opts
	cfg.Replicas = c.cfg.Replicas
	cfg.CommitQuorum = c.cfg.Quorum
	if !c.cfg.PreLease {
		cfg.Lease = core.DefaultLease()
		cfg.Degrade = c.cfg.Degrade
	}
	cfg.Reattach = func(rc core.RestoredContainer, state any) {
		c.app.RestoreState(state)
		c.app.attach(rc)
	}
	cfg.OnRecovered = c.onRecovered
	return cfg
}

// onRecovered records a completed failover. In replay mode every
// recovery carries replay stats; the replay-divergence verdict in
// finish checks them against the recorded egress digests.
func (c *campaign) onRecovered(rc core.RestoredContainer, stats core.RecoveryStats) {
	c.recoveredAt = c.clock.Now()
	c.killPending = false
	c.failovers++
	slot := ""
	if c.cfg.Replicas > 2 {
		i := 0
		for i < c.repl.Replicas() && !c.repl.ReplicaAgent(i).Recovered() {
			i++
		}
		if i == c.repl.Replicas() {
			i = -1
		}
		slot = fmt.Sprintf(" slot=%d", i)
	}
	c.eventf("recovered%s epoch=%d detect=%d", slot, stats.CommittedEpoch, int64(stats.DetectedAt))
	if c.cfg.Opts.RecordReplay {
		c.replays = append(c.replays, stats.Replay)
		if r := stats.Replay; r != nil {
			c.eventf("replay from=%d through=%d segments=%d events=%d bytes=%d diverged=%v",
				r.From, r.Through, r.Segments, r.Events, r.Bytes, r.Diverged)
		}
	}
}

func (c *campaign) eventf(format string, args ...any) {
	fmt.Fprintf(&c.trace, "t=%d event %s\n", int64(c.clock.Now()), fmt.Sprintf(format, args...))
}

func (c *campaign) emitHeader() {
	lease := "on"
	if c.cfg.PreLease {
		lease = "off"
	}
	switch {
	case c.pool != nil:
		f := c.cfg.Fleet
		fmt.Fprintf(&c.trace, "chaos-fleet seed=%d opts=%s pairs=%d workers=%d spares=%d replicas=%d zones=%d duration=%s lease=%s degrade=%s\n",
			c.cfg.Seed, c.cfg.OptName, f.Pairs, f.Hosts, f.Spares, c.cfg.Replicas, f.Zones, c.cfg.Duration, lease, c.cfg.Degrade)
		zone := ""
		if c.sched.zone >= 0 {
			zone = fmt.Sprintf(" zone=%d", c.sched.zone)
		}
		fmt.Fprintf(&c.trace, "sched kill-at=%d%s victims=%v\n", int64(c.sched.killAt), zone, c.sched.victims)
	case c.cfg.Replicas > 2:
		witness := "on"
		if c.wit == nil {
			witness = "off"
		}
		fmt.Fprintf(&c.trace, "chaos-chain seed=%d opts=%s replicas=%d quorum=%d kills=%d duration=%s witness=%s\n",
			c.cfg.Seed, c.cfg.OptName, c.cfg.Replicas, c.repl.Quorum(), c.hostKills(), c.cfg.Duration, witness)
	default:
		fmt.Fprintf(&c.trace, "chaos seed=%d opts=%s duration=%s terminal=%s lease=%s degrade=%s\n",
			c.cfg.Seed, c.cfg.OptName, c.cfg.Duration, c.sched.terminal, lease, c.cfg.Degrade)
	}
	if tr := c.cfg.Traffic; tr != nil {
		slo := c.cfg.SLO.WithDefaults()
		fmt.Fprintf(&c.trace, "traffic name=%s reqs=%d clients=%d keys=%d dur=%s slo=p%v<%s/%s\n",
			tr.Header.Name, len(tr.Reqs), tr.Header.Clients, tr.Header.Keys, tr.Duration(),
			slo.Quantile, slo.Target, slo.Window)
	}
	for _, ev := range c.sched.events {
		fmt.Fprintf(&c.trace, "sched at=%d kind=%s for=%d\n", int64(ev.At), ev.Kind, int64(ev.For))
	}
	if c.cfg.Scenario != "" {
		fmt.Fprintf(&c.trace, "splitbrain scenario=%s\n", c.cfg.Scenario)
	}
}

// hostKills is how many hosts a chain's terminal phase kills (-1 for
// none), as the chain header and the acked-output verdict report it.
func (c *campaign) hostKills() int {
	switch c.sched.terminal {
	case TerminalNone:
		return -1
	case TerminalDoubleKill:
		return 2
	}
	return 1
}

// groups is how many chains the campaign protects: one, or one per
// fleet pair.
func (c *campaign) groups() int {
	if c.pool != nil {
		return len(c.pool.Pairs)
	}
	return 1
}

// eachGroup visits every chain's current replicator generation. who
// prefixes violation details; live marks a fleet pair with an active
// replicator generation (output-commit applies only to those).
func (c *campaign) eachGroup(fn func(who string, r *core.Replicator, live bool)) {
	if c.pool == nil {
		fn("", c.repl, true)
		return
	}
	for _, pr := range c.pool.Pairs {
		fn("pair="+pr.ID+" ", pr.Repl, pr.State == cluster.Protected || pr.State == cluster.Resyncing)
	}
}

// execute drives the campaign through its phases in virtual time.
func (c *campaign) execute() {
	if c.pool != nil {
		c.pool.Start()
	} else {
		c.repl.Start()
	}
	// Output-commit and at-most-one-serving oracles: sampled
	// continuously; the pipeline also enforces output-commit with a
	// panic, so a violation cannot slip through between samples
	// unnoticed.
	oracle := simtime.NewTicker(c.clock, simtime.Millisecond, c.sample)
	if c.cfg.Traffic != nil {
		c.startTraffic()
	} else {
		c.startWriter()
	}
	if c.pool != nil {
		c.scheduleHostKill()
	} else {
		for _, ev := range c.sched.events {
			c.clock.ScheduleAt(simtime.Time(ev.At), func() { c.inject(ev) })
		}
	}

	c.clock.RunUntil(simtime.Time(c.warmup + c.cfg.Duration + terminalGap))
	if d := c.traffic; d != nil {
		issued, outstanding, queued := d.load()
		if c.pool != nil {
			c.eventf("traffic-fault-window-end issued=%d completed=%d", issued, d.judge.Completions())
		} else {
			c.eventf("traffic-fault-window-end issued=%d completed=%d outstanding=%d queued=%d",
				issued, d.judge.Completions(), outstanding, queued)
		}
	} else {
		for _, cli := range c.clients {
			c.acked += cli.okReplies()
		}
		stopped := "writer-stopped"
		if c.pool != nil {
			stopped = "writers-stopped"
		}
		c.eventf("%s sent=%d acked=%d", stopped, sum(c.sent), c.acked)
	}

	if c.pool != nil {
		c.awaitFleetConvergence()
	} else {
		c.terminal()
	}

	// Read-back verification runs with the survivors still serving; for
	// a no-terminal campaign replication is still active, so the GET
	// replies themselves traverse the output-commit path.
	if c.traffic != nil {
		c.verifyTrafficData()
	} else {
		c.verifyWrites()
	}
	switch {
	case c.pool != nil:
		c.quiesceDrain()
	case c.sched.terminal != TerminalNone:
	case c.failovers == 0:
		c.quiesceDrain()
	case c.cfg.Replicas == 2:
		c.eventf("drain-skipped failovers=%d", c.failovers)
	}
	if c.traffic != nil {
		c.finishTraffic()
	}
	oracle.Stop()
}

// startWriter connects one client per chain before the first epoch
// boundary — the unoptimized configuration drops input (firewall rules,
// §V-C) during its long stop phases, and a SYN that keeps missing the
// short open windows may never get through — and from warmup sends each
// chain one unique SET every 10 ms. Every OK's latency from its SET is
// recorded (the RunLatency probe's measurement).
func (c *campaign) startWriter() {
	n := c.groups()
	c.clients = make([]*kvClient, n)
	c.sent = make([]int, n)
	c.clock.Schedule(simtime.Millisecond, func() {
		for g := range c.clients {
			cli := c.dial(g, c.clientIP(writerClient, g, 0))
			cli.onReply = func(reply string) {
				if reply == "OK" && cli.oks < len(cli.sentAt) {
					c.latency.Add(c.clock.Now().Sub(cli.sentAt[cli.oks]).Seconds() * 1000)
					cli.oks++
				}
			}
			c.clients[g] = cli
		}
	})
	writeUntil := c.warmup + c.cfg.Duration
	var writer *simtime.Ticker
	c.clock.Schedule(c.warmup, func() {
		writer = simtime.NewTicker(c.clock, writeEvery, func() {
			if simtime.Duration(c.clock.Now()) >= writeUntil {
				writer.Stop()
				return
			}
			for g, cli := range c.clients {
				// A long first full checkpoint can freeze the container
				// with the handshake still buffered; skip ticks until the
				// connection is up (virtual time only — deterministic).
				if cli.sock == nil {
					continue
				}
				cli.sentAt = append(cli.sentAt, c.clock.Now())
				cli.send(fmt.Sprintf("SET k%d v%d", c.sent[g], c.sent[g]))
				c.sent[g]++
			}
		})
	})
}

// terminal runs a chain's terminal phase. Closely spaced replication
// cuts can legitimately trip the failure detector (heartbeats gone > 3
// intervals across two cuts); such an unplanned failover is a valid
// system response, and the terminal phase adapts: there is no primary
// left to kill.
func (c *campaign) terminal() {
	switch c.sched.terminal {
	case TerminalNone:
		c.healAll()
		c.eventf("final-heal")
		c.clock.RunFor(settleAfter)
		switch c.cfg.Scenario {
		case ScenarioPartitionHeal:
			c.afterPartitionHeal()
		case ScenarioAckOutage:
			c.afterAckOutage()
		}
	case TerminalReprotect:
		done := c.failovers > 0
		if !done {
			c.kill("terminal-kill")
			done = c.awaitRecovery()
		}
		if done {
			c.reprotectCycle()
		}
	default:
		if c.failovers > 0 {
			c.eventf("terminal-kill-skipped already-failed-over")
			return
		}
		if c.sched.terminal == TerminalKillMidTransfer {
			c.awaitTransfer()
		}
		c.kill("terminal-kill")
		c.awaitRecovery()
	}
}

// awaitTransfer waits (in virtual time) for bytes to be queued on the
// transfer scheduler — a checkpoint image actually streaming — so the
// kill that follows lands mid-transfer.
func (c *campaign) awaitTransfer() {
	xfer := c.repl.Cluster.Xfer
	for i := 0; i < 400 && xfer.QueuedBytes() == 0; i++ {
		c.clock.RunFor(500 * simtime.Microsecond)
	}
	c.eventf("mid-transfer queued=%d", xfer.QueuedBytes())
}

// awaitRecovery runs the clock until failover completes; a recovery
// that does not converge within the bound is an oracle failure.
func (c *campaign) awaitRecovery() bool {
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
	return ok
}

// reprotectCycle re-protects a pair's restored container on the
// repaired original host and then fails it over a second time.
func (c *campaign) reprotectCycle() {
	restored := c.repl.Backup.RestoredCtr
	if restored == nil {
		c.verdicts = append(c.verdicts, Verdict{Oracle: "convergence", OK: false,
			Detail: "no restored container to reprotect"})
		return
	}
	c.clock.RunFor(200 * simtime.Millisecond)
	c.healAll()
	_, repl2, err := core.Reprotect(c.repl.Cluster, restored, c.replConfig())
	if err != nil {
		c.verdicts = append(c.verdicts, Verdict{Oracle: "convergence", OK: false,
			Detail: "reprotect: " + err.Error()})
		return
	}
	c.repl = repl2
	repl2.Timeline = c.timeline
	repl2.Start()
	c.eventf("reprotected")
	c.clock.RunFor(600 * simtime.Millisecond)

	c.kill("second-kill")
	c.awaitRecovery()
}

func (c *campaign) finish() Result {
	c.verdicts = append([]Verdict{
		c.outputCommit.verdict("output-commit", "violations"),
		c.serving.verdict("at-most-one-serving", "dual-serving instants"),
	}, c.verdicts...)

	res := Result{
		Seed:        c.cfg.Seed,
		OptName:     c.cfg.OptName,
		Terminal:    c.sched.terminal,
		AckedWrites: c.acked,
		SentWrites:  sum(c.sent),
		Failovers:   c.failovers,
		SLO:         c.sloReport,
	}
	if c.traffic != nil {
		res.SentWrites, _, _ = c.traffic.load()
	}
	if c.pool != nil {
		res.Terminal = fmt.Sprintf("host-kill×%d", len(c.sched.victims))
		for _, pr := range c.pool.Pairs {
			res.Epochs += pr.Repl.Epochs()
			res.Failovers += pr.Failovers
		}
		for _, h := range c.pool.Hosts {
			res.LinkDrops += h.NIC.Drops()
		}
	} else {
		res.Epochs = c.repl.Epochs()
		res.Resyncs = c.repl.Resyncs.Value()
		for i := 0; i < c.repl.Replicas(); i++ {
			v := c.repl.ReplicaView(i)
			res.LinkDrops += v.ReplLink.Drops() + v.AckLink.Drops()
		}
	}
	if c.cfg.Opts.RecordReplay && res.Failovers > 0 {
		c.verdicts = append(c.verdicts, replayVerdict(res.Failovers, c.replayRecords()))
	}
	res.Verdicts = c.verdicts
	res.Passed = true
	for _, v := range c.verdicts {
		st := "PASS"
		if !v.OK {
			st = "FAIL"
			res.Passed = false
		}
		fmt.Fprintf(&c.trace, "verdict %s %s: %s\n", v.Oracle, st, v.Detail)
	}
	switch {
	case c.pool != nil:
		c.emitFleetFinal(res)
	case c.cfg.Replicas > 2:
		elections, aborts := 0, 0
		if c.wit != nil {
			elections, aborts = c.wit.Elections, c.wit.Aborts
		}
		fmt.Fprintf(&c.trace, "counters epochs=%d resyncs=%d linkdrops=%d sent=%d acked=%d failovers=%d elections=%d aborts=%d\n",
			res.Epochs, res.Resyncs, res.LinkDrops, res.SentWrites, res.AckedWrites, res.Failovers, elections, aborts)
	default:
		fmt.Fprintf(&c.trace, "counters epochs=%d resyncs=%d linkdrops=%d sent=%d acked=%d failovers=%d\n",
			res.Epochs, res.Resyncs, res.LinkDrops, res.SentWrites, res.AckedWrites, res.Failovers)
	}
	res.Trace = c.trace.String()
	var csv strings.Builder
	c.timeline.WriteCSV(&csv)
	res.TimelineCSV = csv.String()
	return res
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
