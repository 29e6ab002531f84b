// Package chaos is a seeded, deterministic failure-campaign engine for
// the replication pipeline. A campaign composes a randomized schedule of
// failures — replication/ack link cuts and heals, heartbeat-threatening
// partitions, primary hard-kills (optionally timed mid-transfer), and
// failover → reprotect → second-failover sequences — from a single
// rand.Rand seed, runs it against a protected container under any
// OptSet, and checks the design's invariants after every event:
//
//  1. no client-visible output is released before the covering
//     checkpoint commits at the backup (output-commit, DESIGN.md §4);
//  2. no acknowledged output is lost across a failover;
//  3. recovery always converges, or the campaign fails loudly;
//  4. after the faults heal and the pipeline quiesces, nothing is
//     retained: no in-flight epochs, no transfer-scheduler flows, no
//     queued bytes;
//  5. the same seed reproduces a byte-identical event trace.
//
// Everything runs in virtual time on the simulated cluster; a campaign
// is a pure function of (seed, options), which is what makes invariant
// violations found here replayable as regression tests.
package chaos

import (
	"fmt"
	"strings"

	"nilicon/internal/container"
	"nilicon/internal/core"
	"nilicon/internal/faultinject"
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
)

// Config parameterizes one campaign.
type Config struct {
	Seed    int64
	Opts    core.OptSet
	OptName string
	// Duration is the fault-injection window (virtual time) between
	// warmup and the terminal phase. Default 1.5 s.
	Duration simtime.Duration
	// Terminal overrides the randomly drawn terminal phase ("" draws
	// from the seed): TerminalNone, TerminalKill, TerminalKillMidTransfer
	// or TerminalReprotect.
	Terminal string
	// Events overrides the number of transient fault events (0 draws
	// 2–6 from the seed; a negative value means zero events — a clean
	// run whose only disruption is the terminal phase).
	Events int
	// Traffic, when set, replaces the fixed-interval writer with an
	// open-loop replay of this trace: one TCP connection per trace
	// client, arrivals fired at trace time regardless of completions,
	// every reply judged against SLO. The fault window is still
	// Duration; a trace longer than it keeps arriving through the
	// terminal phase (a terminal kill becomes a mid-run failover),
	// while a TerminalNone campaign wants the trace to fit inside
	// Duration so arrivals do not bleed into the quiesce epilogue.
	Traffic *traffic.Trace
	// SLO configures the windowed latency judge (zero values take the
	// traffic package defaults: p99.9 < 100 ms per 100 ms window).
	SLO traffic.SLO
	// SLOSlack pads the fault-injection intervals when the slo-windows
	// oracle checks that every violation window coincides with an
	// injected disruption. Default 500 ms.
	SLOSlack simtime.Duration
	// PreLease disables output-commit lease arbitration, reverting to
	// the pre-lease detector behavior. It exists for the split-brain
	// regression: the same seed that passes the at-most-one-serving
	// oracle with the lease on demonstrably dual-serves with it off.
	PreLease bool
	// Degrade selects the lease degradation policy (StrictSafety by
	// default; ignored under PreLease).
	Degrade core.DegradePolicy
	// FaultKinds overrides the transient-fault kinds the schedule draws
	// from. Nil keeps the legacy cut-repl/cut-ack/partition trio with
	// its exact historical random stream; a non-nil list may add the
	// sustained one-way cuts ("oneway-pb", "oneway-bp") and seeded link
	// flapping ("flap").
	FaultKinds []string
	// Shards is the simulation engine's physical lane count (0 is taken
	// as 1). Every simulated host gets its own shard regardless, so any
	// lane count produces an identical trace for a given seed — the
	// shard-parity oracle checks exactly that.
	Shards int
	// Workers enables the engine's conservative-window mode with that
	// many window-drain goroutines (0 = ladder mode, the default).
	// Campaigns schedule across shards freely — the root oracle ticker
	// and fault injection touch every shard — so every shard is pinned
	// onto one lane: windows then hold a single active lane and drain in
	// exactly ladder order, keeping the trace byte-identical for any
	// (Shards, Workers) combination.
	Workers int
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
	// the same (seed, options).
	Trace string
	// TimelineCSV is the per-epoch trace.Timeline rendered as CSV —
	// the second artifact the shard-parity oracle compares byte for
	// byte between engine configurations.
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
)

type campaign struct {
	cfg   Config
	clock *simtime.Clock
	cl    *core.Cluster
	ctr   *container.Container
	app   *kvApp
	repl  *core.Replicator
	cli   *kvClient

	sched    schedule
	trace    strings.Builder
	timeline *trace.Timeline
	verdicts []Verdict

	keysSent    int
	ackedAtStop int

	recovered   bool
	recoveredAt simtime.Time
	failovers   int
	replays     []*core.ReplayStats

	// Traffic mode (cfg.Traffic != nil). killDrains[i] is when the
	// client-visible backlog from kill i finished draining — the real
	// end of that disruption from the clients' point of view.
	traffic     *trafficDriver
	kills       []simtime.Time
	killDrains  []simtime.Time
	killPending bool
	sloReport   *traffic.Report

	ocChecks     int
	ocViolations int
	ocDetail     string

	svChecks     int
	svViolations int
	svDetail     string

	// postSettle, when set, runs after the TerminalNone heal-and-settle
	// window, before data verification. The scripted split-brain
	// campaigns use it for policy assertions and the
	// unprotected-pair re-protection step.
	postSettle func()

	oracleTicker *simtime.Ticker
}

// Run executes one campaign and returns its result.
func Run(cfg Config) Result {
	if cfg.Duration <= 0 {
		cfg.Duration = 1500 * simtime.Millisecond
	}
	if cfg.OptName == "" {
		cfg.OptName = "custom"
	}
	c := &campaign{cfg: cfg}
	c.sched = drawSchedule(cfg)
	c.build()
	c.emitHeader()
	c.execute()
	return c.finish()
}

// VerifySeed runs the campaign twice and adds the determinism oracle:
// the two traces must be byte-identical. The first run's result (with
// the extra verdict) is returned.
func VerifySeed(cfg Config) Result {
	a := Run(cfg)
	b := Run(cfg)
	ok := a.Trace == b.Trace
	detail := "two runs produced byte-identical traces"
	if !ok {
		detail = fmt.Sprintf("trace mismatch: run1 %d bytes, run2 %d bytes", len(a.Trace), len(b.Trace))
	}
	a.Verdicts = append(a.Verdicts, Verdict{Oracle: "determinism", OK: ok, Detail: detail})
	a.Passed = a.Passed && ok
	return a
}

// newEngine builds a campaign's simulation engine: shards lanes (0 is
// taken as 1), and with workers > 0 the conservative-window mode with
// every shard pinned onto lane 0 (see Config.Workers).
func newEngine(shards, workers int) *simtime.ShardedClock {
	sc := simtime.NewShardedClock(shards)
	if workers > 0 {
		sc.SetWorkers(workers)
		sc.PinNewShards(0)
	}
	return sc
}

func (c *campaign) build() {
	sc := newEngine(c.cfg.Shards, c.cfg.Workers)
	c.clock = sc.Root()
	c.cl = core.NewShardedCluster(sc, core.ClusterParams{})
	c.ctr = c.cl.NewProtectedContainer("chaos", "10.0.0.10", 1)
	c.app = newKVApp(c.ctr)
	c.timeline = &trace.Timeline{}

	cfg := core.DefaultConfig()
	cfg.Opts = c.cfg.Opts
	// Campaigns run with lease arbitration on by default: every
	// pre-existing schedule doubles as a regression for the lease path,
	// and the at-most-one-serving oracle holds by protocol rather than
	// by luck. PreLease is the escape hatch for the dual-primary demo.
	if !c.cfg.PreLease {
		cfg.Lease = core.DefaultLease()
		cfg.Degrade = c.cfg.Degrade
	}
	cfg.Reattach = func(rc core.RestoredContainer, state any) {
		c.app.RestoreState(state)
		c.app.attach(rc)
	}
	cfg.OnRecovered = c.onRecovered
	c.repl = core.NewReplicator(c.cl, c.ctr, cfg)
	c.repl.Timeline = c.timeline
}

// onRecovered records a completed failover. In replay mode every
// recovery carries replay stats; the replay-divergence verdict in
// finish checks them against the recorded egress digests.
func (c *campaign) onRecovered(rc core.RestoredContainer, stats core.RecoveryStats) {
	c.recovered = true
	c.recoveredAt = c.clock.Now()
	c.killPending = false
	c.failovers++
	c.eventf("recovered epoch=%d detect=%d", stats.CommittedEpoch, int64(stats.DetectedAt))
	if c.cfg.Opts.RecordReplay {
		c.replays = append(c.replays, stats.Replay)
		if stats.Replay != nil {
			r := stats.Replay
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
	fmt.Fprintf(&c.trace, "chaos seed=%d opts=%s duration=%s terminal=%s lease=%s degrade=%s\n",
		c.cfg.Seed, c.cfg.OptName, c.cfg.Duration, c.sched.terminal, lease, c.cfg.Degrade)
	if tr := c.cfg.Traffic; tr != nil {
		slo := c.cfg.SLO.WithDefaults()
		fmt.Fprintf(&c.trace, "traffic name=%s reqs=%d clients=%d keys=%d dur=%s slo=p%v<%s/%s\n",
			tr.Header.Name, len(tr.Reqs), tr.Header.Clients, tr.Header.Keys, tr.Duration(),
			slo.Quantile, slo.Target, slo.Window)
	}
	for _, ev := range c.sched.events {
		fmt.Fprintf(&c.trace, "sched at=%d kind=%s for=%d\n", int64(ev.At), ev.Kind, int64(ev.For))
	}
}

// execute drives the campaign through its phases in virtual time.
func (c *campaign) execute() {
	c.repl.Start()

	// Output-commit and at-most-one-serving oracles: sampled
	// continuously; the pipeline also enforces output-commit with a
	// panic, so a violation cannot slip through between samples
	// unnoticed.
	c.oracleTicker = simtime.NewTicker(c.clock, simtime.Millisecond, func() {
		c.checkOutputCommit()
		c.checkServing()
		if c.traffic != nil {
			c.sampleTraffic()
		}
	})

	writeUntil := warmup + c.cfg.Duration
	if c.cfg.Traffic != nil {
		// Trace-driven open-loop replay (traffic.go) instead of the
		// fixed-interval writer. The fault window stays cfg.Duration; a
		// trace longer than it keeps arriving straight through the
		// terminal phase — that is what makes a terminal kill a mid-run
		// failover from the clients' point of view.
		c.startTraffic()
	} else {
		// Writer: one unique SET every 10 ms over a real TCP connection.
		// Connect before the first epoch boundary: the unoptimized
		// configuration drops input (firewall rules, §V-C) during its long
		// stop phases, and a SYN that keeps missing the short open windows
		// may never get through — the campaign needs an established
		// connection under every option set.
		c.clock.Schedule(simtime.Millisecond, func() {
			c.cli = newKVClient(c.cl, "10.0.0.1", "10.0.0.10")
		})
		var writer *simtime.Ticker
		c.clock.Schedule(warmup, func() {
			writer = simtime.NewTicker(c.clock, writeEvery, func() {
				if simtime.Duration(c.clock.Now()) >= writeUntil {
					writer.Stop()
					return
				}
				// Under the unoptimized configuration the first full
				// checkpoint freezes the container for hundreds of
				// milliseconds, so the handshake may still be buffered when
				// the writer starts; skip ticks until the connection is up
				// (virtual time only — stays deterministic).
				if c.cli.sock == nil {
					return
				}
				c.cli.send(fmt.Sprintf("SET k%d v%d", c.keysSent, c.keysSent))
				c.keysSent++
			})
		})
	}

	// Transient fault events, drawn entirely up front from the seed.
	for _, ev := range c.sched.events {
		ev := ev
		c.clock.ScheduleAt(simtime.Time(ev.At), func() {
			c.inject(ev)
		})
	}

	c.clock.RunUntil(simtime.Time(writeUntil + terminalGap))
	if c.traffic != nil {
		c.keysSent = c.traffic.rep.Issued()
		c.ackedAtStop = c.traffic.judge.Completions()
		c.eventf("traffic-fault-window-end issued=%d completed=%d outstanding=%d queued=%d",
			c.keysSent, c.ackedAtStop, c.traffic.rep.Outstanding(), c.traffic.rep.QueuedClientSide())
	} else {
		c.ackedAtStop = c.cli.okReplies()
		c.eventf("writer-stopped sent=%d acked=%d", c.keysSent, c.ackedAtStop)
	}

	// Closely spaced replication-link cuts can legitimately trip the
	// failure detector (heartbeats gone > 3 intervals across two cuts);
	// such an unplanned failover is a valid system response, and the
	// terminal phase adapts: there is no primary left to kill.
	switch c.sched.terminal {
	case TerminalNone:
		faultinject.Heal(c.repl)
		c.eventf("final-heal")
		c.clock.RunFor(settleAfter)
		if c.postSettle != nil {
			c.postSettle()
		}
	case TerminalKill:
		if c.failovers == 0 {
			c.kill("terminal-kill")
			c.awaitRecovery()
		} else {
			c.eventf("terminal-kill-skipped already-failed-over")
		}
	case TerminalKillMidTransfer:
		if c.failovers == 0 {
			c.killMidTransfer()
			c.awaitRecovery()
		} else {
			c.eventf("terminal-kill-skipped already-failed-over")
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
	}

	// Read-back verification runs with the survivor still serving; for
	// the no-terminal campaign replication is still active, so the GET
	// replies themselves traverse the output-commit path.
	if c.traffic != nil {
		c.verifyTrafficData()
	} else {
		c.verifyData()
	}
	if c.sched.terminal == TerminalNone {
		if c.failovers == 0 {
			c.quiesceDrain()
		} else {
			c.eventf("drain-skipped failovers=%d", c.failovers)
		}
	}
	if c.traffic != nil {
		c.finishTraffic()
	}
	c.oracleTicker.Stop()
}

func (c *campaign) inject(ev event) {
	switch ev.Kind {
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
		// The burst schedules its own seeded toggles and ends healed
		// inside ev.For; the trailing heal below is a harmless no-op that
		// keeps the event lifecycle uniform in the trace. The salt keeps
		// multiple flap events in one campaign decorrelated while staying
		// a pure function of (seed, schedule).
		faultinject.FlapLinks(c.repl, c.cfg.Seed^int64(ev.At), ev.For)
	}
	c.eventf("%s for=%d", ev.Kind, int64(ev.For))
	c.clock.Schedule(ev.For, func() {
		faultinject.Heal(c.repl)
		c.eventf("heal after=%s", ev.Kind)
	})
}

func (c *campaign) kill(label string) {
	c.kills = append(c.kills, c.clock.Now())
	c.killPending = true
	faultinject.HardKill(c.repl)
	// The dead host schedules nothing further: without this, the killed
	// replicator's epoch engine would keep checkpointing the stopped
	// container into the cut link forever.
	c.repl.Quiesce()
	c.eventf("%s epoch=%d", label, c.repl.Epochs())
}

// killMidTransfer waits (in virtual time) for bytes to be queued on the
// transfer scheduler — i.e. a checkpoint image actually streaming — and
// kills the primary at that instant.
func (c *campaign) killMidTransfer() {
	for i := 0; i < 400; i++ {
		if c.cl.Xfer.QueuedBytes() > 0 {
			break
		}
		c.clock.RunFor(500 * simtime.Microsecond)
	}
	c.eventf("mid-transfer queued=%d", c.cl.Xfer.QueuedBytes())
	c.kill("terminal-kill")
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

// quiesceDrain is the no-terminal epilogue: with everything healed and
// the backlog drained, stop new epochs and assert that the pipeline
// retains nothing.
func (c *campaign) quiesceDrain() {
	c.repl.Quiesce()
	c.eventf("quiesce epoch=%d", c.repl.Epochs())
	c.clock.RunFor(quiesceAfter)

	inflight := c.repl.InflightEpochs()
	flows := c.cl.Xfer.Flows()
	queued := c.cl.Xfer.QueuedBytes()
	ok := inflight == 0 && flows == 0 && queued == 0
	c.verdicts = append(c.verdicts, Verdict{
		Oracle: "drain-to-zero", OK: ok,
		Detail: fmt.Sprintf("inflight=%d flows=%d queued=%d after quiesce", inflight, flows, queued),
	})
	rel, relOK := c.repl.ReleasedEpoch()
	com, comOK := c.repl.Backup.CommittedEpoch()
	c.eventf("drained inflight=%d flows=%d queued=%d released=%d/%v committed=%d/%v",
		inflight, flows, queued, rel, relOK, com, comOK)
}

// reprotectCycle re-protects the restored container on the repaired
// original host and then fails it over a second time.
func (c *campaign) reprotectCycle() {
	restored := c.repl.Backup.RestoredCtr
	if restored == nil {
		c.verdicts = append(c.verdicts, Verdict{Oracle: "convergence", OK: false,
			Detail: "no restored container to reprotect"})
		return
	}
	c.clock.RunFor(200 * simtime.Millisecond)
	faultinject.Heal(c.repl)

	cfg2 := core.DefaultConfig()
	cfg2.Opts = c.cfg.Opts
	if !c.cfg.PreLease {
		cfg2.Lease = core.DefaultLease()
		cfg2.Degrade = c.cfg.Degrade
	}
	cfg2.Reattach = func(rc core.RestoredContainer, state any) {
		c.app.RestoreState(state)
		c.app.attach(rc)
	}
	cfg2.OnRecovered = c.onRecovered
	_, repl2, err := core.Reprotect(c.cl, restored, cfg2)
	if err != nil {
		c.verdicts = append(c.verdicts, Verdict{Oracle: "convergence", OK: false,
			Detail: "reprotect: " + err.Error()})
		return
	}
	c.cl = repl2.Cluster
	c.repl = repl2
	repl2.Timeline = c.timeline
	repl2.Start()
	c.eventf("reprotected")
	c.clock.RunFor(600 * simtime.Millisecond)

	c.kill("second-kill")
	c.awaitRecovery()
}

// checkOutputCommit samples invariant (1): the highest epoch whose
// buffered output was released never exceeds the backup's committed
// epoch.
func (c *campaign) checkOutputCommit() {
	rel, relOK := c.repl.ReleasedEpoch()
	if !relOK {
		return
	}
	c.ocChecks++
	com, comOK := c.repl.Backup.CommittedEpoch()
	if !comOK || rel > com {
		c.ocViolations++
		if c.ocDetail == "" {
			c.ocDetail = fmt.Sprintf("released=%d committed=%d/%v at t=%d", rel, com, comOK, int64(c.clock.Now()))
		}
	}
}

// checkServing samples the split-brain invariant: at every simulated
// instant at most one replica of the pair releases output to clients.
// The predicate reads the current replicator generation — after a
// reprotect the previously promoted container is that generation's
// primary, so the old generation's agents are out of the picture.
func (c *campaign) checkServing() {
	c.svChecks++
	n := 0
	if c.repl.Serving() {
		n++
	}
	if c.repl.Backup.Serving() {
		n++
	}
	if n > 1 {
		c.svViolations++
		if c.svDetail == "" {
			c.svDetail = fmt.Sprintf("primary and promoted backup both serving at t=%d lease=%s",
				int64(c.clock.Now()), c.repl.LeaseState())
		}
	}
}

// verifyData is invariant (2): every write the client sent was either
// acknowledged (and must survive) or sits in the client's TCP send
// queue and is retransmitted to the (possibly restored) server before
// the trailing GETs — so every key must read back its value.
func (c *campaign) verifyData() {
	if c.cli == nil || c.keysSent == 0 {
		return
	}
	if !c.cfg.Opts.PlugInput {
		// Firewall-mode input blocking (§V-C) drops packets during every
		// stop phase; with the stop phases dominating the epoch and the
		// client's RTO backing off to seconds, segments take unbounded
		// virtual time to land in an open window. That multi-second
		// client-visible latency is exactly the deficiency PlugInput
		// fixes — data-path verification needs a configuration that
		// buffers instead of drops.
		c.verdicts = append(c.verdicts, Verdict{Oracle: "acked-output", OK: true,
			Detail: "skipped: firewall input blocking drops client segments for seconds-long RTO backoffs"})
		return
	}
	// Let retransmissions settle, then read everything back on the same
	// connection: TCP FIFO ordering puts the GETs after every SET.
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
	detail := fmt.Sprintf("%d writes (%d acked pre-terminal) all readable", c.keysSent, c.ackedAtStop)
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

func (c *campaign) finish() Result {
	c.verdicts = append([]Verdict{{
		Oracle: "output-commit",
		OK:     c.ocViolations == 0,
		Detail: fmt.Sprintf("%d samples, %d violations %s", c.ocChecks, c.ocViolations, c.ocDetail),
	}, {
		Oracle: "at-most-one-serving",
		OK:     c.svViolations == 0,
		Detail: fmt.Sprintf("%d samples, %d dual-serving instants %s", c.svChecks, c.svViolations, c.svDetail),
	}}, c.verdicts...)

	if c.cfg.Opts.RecordReplay && c.failovers > 0 {
		ok := true
		detail := fmt.Sprintf("%d failovers, all replayed to recorded egress digests", c.failovers)
		if len(c.replays) != c.failovers {
			ok = false
			detail = fmt.Sprintf("%d failovers but %d replay records", c.failovers, len(c.replays))
		}
		for i, r := range c.replays {
			if r == nil {
				ok = false
				detail = fmt.Sprintf("failover %d produced no replay stats", i+1)
				break
			}
			if r.Diverged {
				ok = false
				detail = fmt.Sprintf("failover %d diverged at segment %d", i+1, r.DivergedSeq)
				break
			}
		}
		c.verdicts = append(c.verdicts, Verdict{Oracle: "replay-divergence", OK: ok, Detail: detail})
	}

	res := Result{
		Seed:        c.cfg.Seed,
		OptName:     c.cfg.OptName,
		Terminal:    c.sched.terminal,
		Verdicts:    c.verdicts,
		Epochs:      c.repl.Epochs(),
		Resyncs:     c.repl.Resyncs.Value(),
		LinkDrops:   c.cl.ReplLink.Drops() + c.cl.AckLink.Drops(),
		AckedWrites: c.ackedAtStop,
		SentWrites:  c.keysSent,
		Failovers:   c.failovers,
		SLO:         c.sloReport,
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
	fmt.Fprintf(&c.trace, "counters epochs=%d resyncs=%d linkdrops=%d sent=%d acked=%d failovers=%d\n",
		res.Epochs, res.Resyncs, res.LinkDrops, res.SentWrites, res.AckedWrites, res.Failovers)
	res.Trace = c.trace.String()
	var csv strings.Builder
	if err := c.timeline.WriteCSV(&csv); err == nil {
		res.TimelineCSV = csv.String()
	}
	return res
}
