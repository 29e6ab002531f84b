// Package chaos is a seeded, deterministic failure-campaign engine for
// the replication pipeline. A campaign is a topology × a fault schedule
// × an oracle list (DESIGN.md §6):
//
//   - the topology is one primary/backup pair or, with Config.Fleet, a
//     host pool running many chains under the cluster control plane. A
//     chain wider than a pair exists only in a fleet (Fleet.Replicas):
//     its replicas never promote themselves, the fleet detector picks
//     the one slot to promote. Every chain serves the benchmarks' KV
//     server, workloads.Server, and its clients replay one trace
//     (Config.Traffic, or a unique-key SET every 10 ms) through
//     workloads.Conn, the one client type: the acked-output oracle reads
//     back through the same connection;
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
	"nilicon/internal/faultinject"
	"nilicon/internal/simtime"
	"nilicon/internal/trace"
	"nilicon/internal/traffic"
	"nilicon/internal/workloads"
)

// Terminal phases.
const (
	TerminalNone            = "none"
	TerminalKill            = "kill"
	TerminalKillMidTransfer = "kill-mid-transfer"
	TerminalReprotect       = "reprotect"
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

	// Fleet, when set, replaces the single pair with a host pool of
	// many chains, whose schedule is one host (or zone) kill.
	Fleet *Fleet

	// Terminal overrides the randomly drawn terminal phase of a pair
	// ("" draws from the seed).
	Terminal string
	// Events overrides the number of transient fault events (0 draws
	// 2–6 from the seed; a negative value means zero events — a clean
	// run whose only disruption is the terminal phase).
	Events int
	// FaultKinds overrides the transient-fault kinds a pair's schedule
	// draws from; nil draws from the transient cuts "cut-repl",
	// "cut-ack" and "partition". A list may also name the
	// sustained one-way cuts ("oneway-pb", "oneway-bp") and seeded link
	// flapping ("flap").
	FaultKinds []string
	// Scenario replaces the drawn schedule with a scripted split-brain
	// geometry (ScenarioPartitionHeal or ScenarioAckOutage) plus its
	// post-settle policy assertions; it fixes Duration and Terminal.
	Scenario string

	// PreLease disables output-commit lease arbitration, reverting to
	// the pre-lease detector behavior. It is the one escape hatch, kept
	// for the split-brain regressions: the same seed that passes the
	// at-most-one-serving oracle with the lease on demonstrably
	// dual-serves with it off.
	PreLease bool
	// Degrade selects the lease degradation policy (StrictSafety by
	// default; ignored under PreLease).
	Degrade core.DegradePolicy

	// Traffic, when set, is the trace every chain's clients replay in
	// place of the fixed-interval writer trace (one unique-key SET every
	// 10 ms over Duration), and adds the SLO report lines and the
	// slo-windows oracle: every reply is judged against the traffic
	// package's default SLO (p99.9 < 100 ms per 100 ms window). Either
	// trace is replayed open-loop, one TCP connection per trace client,
	// arrivals fired at trace time regardless of completions. A trace
	// longer than Duration keeps arriving through the terminal phase (a
	// terminal kill becomes a mid-run failover), while a TerminalNone
	// campaign wants the trace to fit inside Duration so arrivals do not
	// bleed into the quiesce epilogue.
	Traffic *traffic.Trace
}

// Fleet is the host-pool topology (DESIGN.md §9): Pairs chains placed
// over Hosts workers plus Spares, re-protected by the control plane.
type Fleet struct {
	// Defaults: 8 pairs over 4 hosts, 2 kills; Spares stays as given.
	Pairs  int
	Hosts  int
	Spares int
	// Replicas is every chain's width including the primary: 2 (the
	// default) is the classic pair; more adds backup replicas, each in
	// its own failure domain (DESIGN.md §15). A width above 2 kills a
	// whole zone instead of Kills hosts (Fleet.killsZone).
	Replicas int
	// Kills is how many hosts die — all in the same instant. Victims are
	// never ring-adjacent: a pair's backup sits on the next host in the
	// placement ring, so adjacent victims would take both of a pair's
	// hosts at once, which is outside NiLiCon's fault model (one failure
	// per pair at a time).
	Kills int
	// Zones is the number of failure domains for zone-anti-affine chain
	// placement (cluster.Params.Zones).
	Zones int
}

// killsZone reports whether the fleet's kill takes an entire failure
// domain drawn from the seed — every host in the chosen zone, workers
// and spares, in the same instant — instead of Kills independent hosts:
// exactly when its chains are wider than a pair. Zone anti-affinity is
// what guarantees a single instant takes at most one host from any
// chain, which the convergence accounting (and the fault model: f
// failures spread across domains, not two hosts of one chain) depends
// on; independent host draws could take two members of one chain.
func (f *Fleet) killsZone() bool { return f.Replicas > 2 }

func (cfg *Config) defaults() {
	if cfg.OptName == "" {
		cfg.OptName = "custom"
	}
	if f := cfg.Fleet; f != nil {
		// Default a copy: callers may share one Fleet across configs.
		fc := *f
		cfg.Fleet = &fc
		fc.defaults()
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
	if cfg.Duration <= 0 {
		cfg.Duration = 1500 * simtime.Millisecond
	}
}

func (f *Fleet) defaults() {
	if f.Pairs <= 0 {
		f.Pairs = 8
	}
	if f.Hosts <= 0 {
		f.Hosts = 4
	}
	if f.Kills <= 0 {
		f.Kills = 2
	}
	if f.Replicas < 2 {
		f.Replicas = 2
	}
	if f.Zones < 1 {
		f.Zones = 1
	}
	// A zone kill needs a zone for every chain member (killsZone).
	if f.killsZone() && f.Zones < f.Replicas {
		f.Zones = f.Replicas
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

	// Campaign counters. SentWrites is how many requests the clients
	// issued, AckedWrites how many replies they had when the fault
	// window ended.
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

// pairIP is the pair topology's server address.
const pairIP = "10.0.0.10"

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

	// sloSlack pads the disruption spans when the slo-windows oracle
	// checks that every violation window coincides with one.
	sloSlack = 500 * simtime.Millisecond
)

type campaign struct {
	cfg      Config
	sched    schedule
	clock    *simtime.Clock
	trace    strings.Builder
	timeline *trace.Timeline
	verdicts []Verdict

	warmup, convergeIn simtime.Duration

	// tr is the trace every chain's clients replay; prof sizes every
	// chain's kv server for its keyspace.
	tr   *traffic.Trace
	prof workloads.Profile

	// Pair topology (cfg.Fleet == nil). repl is the current replicator
	// generation: the reprotect terminal replaces it.
	srv  *kvServer
	repl *core.Replicator

	// Fleet topology (cfg.Fleet != nil).
	pool  *cluster.Fleet
	audit fleetAudit

	// clients replay tr against every chain; acked is how many replies
	// they had when the fault window ended.
	clients   *clients
	acked     int
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
	return run(cfg, drawSchedule(cfg))
}

// run executes a defaulted cfg under the fault plan sched.
func run(cfg Config, sched schedule) Result {
	c := &campaign{cfg: cfg, sched: sched}
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
	c.tr = c.cfg.Traffic
	if c.tr == nil {
		c.tr = writerTrace(c.cfg.Duration)
	}
	c.prof = kvProfile(c.tr.Header.Keys)
	clock := simtime.NewClock()
	if c.cfg.Fleet != nil {
		c.buildFleet(clock)
		return
	}
	c.warmup, c.convergeIn = warmup, convergeIn
	c.clock = clock
	cl := core.NewShardedCluster(clock, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("chaos", pairIP, 1)
	c.srv = &kvServer{prof: c.prof}
	c.srv.Install(ctr)
	c.timeline = &trace.Timeline{}
	c.repl = core.NewReplicator(cl, ctr, c.replConfig())
	c.repl.Timeline = c.timeline
}

// replConfig is the replicator configuration of every pair generation
// the campaign builds. Campaigns run with lease arbitration on by
// default: every schedule doubles as a regression for the lease path,
// and the at-most-one-serving oracle holds by protocol rather than by
// luck; PreLease drops it to show what the pair does without it.
func (c *campaign) replConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Opts = c.cfg.Opts
	if !c.cfg.PreLease {
		cfg.Lease = core.DefaultLease()
		cfg.Degrade = c.cfg.Degrade
	}
	cfg.Reattach = c.srv.Reattach
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
	c.eventf("recovered epoch=%d detect=%d", stats.CommittedEpoch, int64(stats.DetectedAt))
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
			c.cfg.Seed, c.cfg.OptName, f.Pairs, f.Hosts, f.Spares, f.Replicas, f.Zones, c.cfg.Duration, lease, c.cfg.Degrade)
		zone := ""
		if c.sched.zone >= 0 {
			zone = fmt.Sprintf(" zone=%d", c.sched.zone)
		}
		fmt.Fprintf(&c.trace, "sched kill-at=%d%s victims=%v\n", int64(c.sched.killAt), zone, c.sched.victims)
	default:
		fmt.Fprintf(&c.trace, "chaos seed=%d opts=%s duration=%s terminal=%s lease=%s degrade=%s\n",
			c.cfg.Seed, c.cfg.OptName, c.cfg.Duration, c.sched.terminal, lease, c.cfg.Degrade)
	}
	if tr := c.cfg.Traffic; tr != nil {
		slo := traffic.SLO{}.WithDefaults()
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
	c.startClients()
	if c.pool != nil {
		c.scheduleHostKill()
	} else {
		for _, ev := range c.sched.events {
			c.clock.ScheduleAt(simtime.Time(ev.At), func() { c.inject(ev) })
		}
	}

	c.clock.RunUntil(simtime.Time(c.warmup + c.cfg.Duration + terminalGap))
	issued, outstanding, queued := c.clients.load()
	c.acked = c.clients.judge.Completions()
	c.eventf("fault-window-end issued=%d completed=%d outstanding=%d queued=%d",
		issued, c.acked, outstanding, queued)

	if c.pool != nil {
		c.awaitFleetConvergence()
	} else {
		c.terminal()
	}

	// Read-back verification runs with the survivors still serving; for
	// a no-terminal campaign replication is still active, so the GET
	// replies themselves traverse the output-commit path.
	c.verifyAckedOutput()
	switch {
	case c.pool != nil:
		c.quiesceDrain()
	case c.sched.terminal != TerminalNone:
	case c.failovers == 0:
		c.quiesceDrain()
	default:
		c.eventf("drain-skipped failovers=%d", c.failovers)
	}
	if c.cfg.Traffic != nil {
		c.finishTraffic()
	}
	oracle.Stop()
}

// terminal runs a pair's terminal phase. Closely spaced replication
// cuts can legitimately trip the failure detector (heartbeats gone > 3
// intervals across two cuts); such an unplanned failover is a valid
// system response, and the terminal phase adapts: there is no primary
// left to kill.
func (c *campaign) terminal() {
	switch c.sched.terminal {
	case TerminalNone:
		faultinject.Heal(c.repl)
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

// awaitTransfer runs the clock event by event until the transfer
// scheduler is sending (at most 200 ms), so the kill that follows lands
// while a transfer is still streaming and the backup must discard it.
func (c *campaign) awaitTransfer() {
	xfer := c.repl.Cluster.Xfer
	deadline := c.clock.Now().Add(200 * simtime.Millisecond)
	for xfer.SendingBytes() == 0 && c.clock.Now() < deadline && c.clock.Step() {
	}
	c.eventf("mid-transfer sending=%d", xfer.SendingBytes())
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
	faultinject.Heal(c.repl)
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
		Terminal:    c.sched.terminal,
		AckedWrites: c.acked,
		Failovers:   c.failovers,
		SLO:         c.sloReport,
	}
	res.SentWrites, _, _ = c.clients.load()
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
		cl := c.repl.Cluster
		res.LinkDrops = cl.ReplLink.Drops() + cl.AckLink.Drops()
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
