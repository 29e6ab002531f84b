package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"nilicon/internal/core"
	"nilicon/internal/faultinject"
	"nilicon/internal/simtime"
)

// event is one scheduled transient fault.
type event struct {
	At   simtime.Duration // campaign-relative injection time
	Kind string           // a faultKinds key
	For  simtime.Duration // outage length before the heal
}

// schedule is a campaign's full fault plan, fixed entirely up front —
// nothing about the run feeds back into it, which is what makes the
// trace a pure function of the Config. A pair runs transient events
// and a terminal phase; a fleet runs one host (or zone) kill.
type schedule struct {
	events   []event
	terminal string

	killAt  simtime.Duration
	zone    int // -1 unless Fleet.killsZone
	victims []int
}

// Transient cut bounds. Replication-link and partition cuts stay under
// the failure-detection threshold (3 × 30 ms of missed heartbeats):
// heartbeats ride the replication link, and these events model faults
// the system should absorb without failing over. Ack-link cuts do not
// affect heartbeats and may last longer.
const (
	cutMin     = 10 * simtime.Millisecond
	cutReplMax = 50 * simtime.Millisecond
	cutAckMax  = 150 * simtime.Millisecond
)

// Sustained one-way cuts and flap bursts (drawn only from explicit
// Config.FaultKinds lists) use the opposite duration
// profile: long enough to cross both the failure-detection threshold
// (90 ms) and the lease duration (120 ms). These kinds exist to
// threaten split-brain, not to be absorbed.
const (
	onewayMin = 250 * simtime.Millisecond
	onewayMax = 600 * simtime.Millisecond
	flapMin   = 120 * simtime.Millisecond
	flapMax   = 300 * simtime.Millisecond
)

// faultKind is what one transient fault kind means: the inter-host
// links it cuts (repl: primary→backup, ack: backup→primary) or, for a
// flap burst, toggles, and the range [min, max) its outage length is
// drawn from.
type faultKind struct {
	repl, ack, flap bool
	min, max        simtime.Duration
}

// faultKinds names every transient fault kind a schedule can hold. The
// one-way kinds cut the same links as cut-repl and cut-ack; they differ
// in the duration profile that threatens split-brain. oneway-pb lasts
// long enough for the backup's detector to convict a primary that is
// still serving clients, the asymmetric case lease arbitration exists
// for; under oneway-bp the backup hears everything, so the primary's
// lease expires with the backup healthy, the case that separates the
// StrictSafety and Availability degradation policies.
var faultKinds = map[string]faultKind{
	"cut-repl":  {repl: true, min: cutMin, max: cutReplMax},
	"cut-ack":   {ack: true, min: cutMin, max: cutAckMax},
	"partition": {repl: true, ack: true, min: cutMin, max: cutReplMax},
	"oneway-pb": {repl: true, min: onewayMin, max: onewayMax},
	"oneway-bp": {ack: true, min: onewayMin, max: onewayMax},
	"flap":      {flap: true, min: flapMin, max: flapMax},
}

// seededRand decorrelates adjacent small seeds with a splitmix64
// finalizer (math/rand's leading draws from seeds 1..N are highly
// correlated) so seeds explore genuinely different schedules. Each
// schedule kind mixes in its own stream constants.
func seededRand(seed int64, mul, add uint64) *rand.Rand {
	z := uint64(seed)*mul + add
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return simtime.NewRand(int64(z >> 1))
}

func drawSchedule(cfg Config) schedule {
	switch {
	case cfg.Fleet != nil:
		return drawHostKill(cfg)
	case cfg.Scenario != "":
		return scriptedSchedule(cfg)
	}
	rng := seededRand(cfg.Seed, 1, 0x9e3779b97f4a7c15)
	var s schedule

	n := cfg.Events
	if n == 0 {
		n = 2 + rng.Intn(5)
	} else if n < 0 {
		// Explicitly no transient events: a clean run whose only
		// disruption is the terminal phase (the SLO ladder benchmarks
		// isolate failover cost this way).
		n = 0
	}
	// Events land inside the writer window, clear of warmup and of the
	// terminal phase.
	lo := int64(warmup + 100*simtime.Millisecond)
	hi := int64(warmup + cfg.Duration - 100*simtime.Millisecond)
	if hi <= lo {
		hi = lo + 1
	}
	kinds := cfg.FaultKinds
	if len(kinds) == 0 {
		kinds = []string{"cut-repl", "cut-ack", "partition"}
	}
	for i := 0; i < n; i++ {
		ev := event{At: simtime.Duration(lo + rng.Int63n(hi-lo))}
		ev.Kind = kinds[rng.Intn(len(kinds))]
		k, ok := faultKinds[ev.Kind]
		if !ok {
			panic("chaos: unknown fault kind " + ev.Kind)
		}
		ev.For = k.min + simtime.Duration(rng.Int63n(int64(k.max-k.min)))
		s.events = append(s.events, ev)
	}
	sort.Slice(s.events, func(i, j int) bool { return s.events[i].At < s.events[j].At })
	// Separate overlapping events: a heal scheduled inside the next cut
	// would re-open a link the later event believes it cut. Push each
	// event past its predecessor's heal.
	for i := 1; i < len(s.events); i++ {
		prevEnd := s.events[i-1].At + s.events[i-1].For + 5*simtime.Millisecond
		if s.events[i].At < prevEnd {
			s.events[i].At = prevEnd
		}
	}

	s.terminal = cfg.Terminal
	if s.terminal == "" {
		s.terminal = []string{TerminalNone, TerminalKill, TerminalKillMidTransfer, TerminalReprotect}[rng.Intn(4)]
	}
	return s
}

// inject dispatches one scheduled fault through faultinject.
func (c *campaign) inject(ev event) {
	if k := faultKinds[ev.Kind]; k.flap {
		// The burst schedules its own seeded toggles and ends healed
		// inside ev.For; the trailing heal below is a harmless no-op that
		// keeps the event lifecycle uniform in the trace. The salt keeps
		// multiple flap events in one campaign decorrelated while staying
		// a pure function of (seed, schedule).
		faultinject.FlapLinks(c.repl, c.cfg.Seed^int64(ev.At), ev.For)
	} else {
		faultinject.Cut(c.repl, k.repl, k.ack)
	}
	c.eventf("%s for=%d", ev.Kind, int64(ev.For))
	c.clock.Schedule(ev.For, func() {
		faultinject.Heal(c.repl)
		c.eventf("heal after=%s", ev.Kind)
	})
}

// kill is a host failure of the primary (faultinject.HardKill): every
// link it terminates goes down and the container stops; the epoch
// engine also quiesces — a dead host schedules nothing, and without
// this the killed replicator would keep checkpointing the stopped
// container into the cut link forever.
func (c *campaign) kill(label string) {
	c.kills = append(c.kills, c.clock.Now())
	c.killPending = true
	faultinject.HardKill(c.repl)
	c.repl.Quiesce()
	c.eventf("%s epoch=%d", label, c.repl.Epochs())
}

// Scripted split-brain scenarios (DESIGN.md §10): unlike the drawn
// schedules, these pin the exact fault geometry the lease protocol
// exists for and assert the policy-level outcomes after the settle.
//
//   - "partition-heal": a full partition outlives the lease term AND the
//     backup's promotion barrier, so both replicas are alive and
//     convinced of their role when the partition heals mid-election.
//     The primary must self-fence before the backup's network goes
//     live, the promoted backup's supersede notice must stand the old
//     primary down after the heal, and at no simulated instant may both
//     serve. Both degradation policies must pass: Availability's
//     unprotect timer must be cancelled by the supersede, never raced.
//
//   - "ack-outage": a sustained one-way cut of the backup→primary link.
//     The backup hears every heartbeat (so it must never promote) while
//     the primary's grants stop arriving. StrictSafety keeps the
//     primary fenced for the whole outage and resumes on heal;
//     Availability declares the pair unprotected after its fixed 1 s
//     unprotected-after delay, serves without acks, and the campaign
//     re-protects it with a full resync once the link heals.
//
// Run with Config.PreLease the same seed demonstrates the pre-lease
// detector's dual primary: the partition-heal backup promotes on
// staleness alone while the old primary is still authorized to release
// — the at-most-one-serving oracle fails by hundreds of sampled
// instants. That regression is the justification for the whole layer.
const (
	ScenarioPartitionHeal = "partition-heal"
	ScenarioAckOutage     = "ack-outage"
)

// Scripted scenario geometry. The partition must outlive the promotion
// barrier (last grant + lease term + skew margin ≈ 255 ms past the cut)
// so the backup genuinely promotes mid-partition; the ack outage must
// outlive the fence (≈120 ms) plus the 1 s unprotected-after delay so the
// Availability policy genuinely triggers.
const (
	sbFaultAt      = warmup + 300*simtime.Millisecond
	sbPartitionMin = 400 * simtime.Millisecond
	sbPartitionMax = 700 * simtime.Millisecond
	sbPartitionRun = 1500 * simtime.Millisecond
	sbAckOutage    = 1400 * simtime.Millisecond
	sbAckRun       = 2200 * simtime.Millisecond
)

// scriptedSchedule is a Scenario's one fault; only the partition length
// is drawn from the seed (its own splitmix64 stream).
func scriptedSchedule(cfg Config) schedule {
	ev := event{At: sbFaultAt, Kind: "oneway-bp", For: sbAckOutage}
	if cfg.Scenario == ScenarioPartitionHeal {
		rng := seededRand(cfg.Seed, 0x9e3779b97f4a7c15, 0x2545f4914f6cdd1d)
		ev.Kind = "partition"
		ev.For = sbPartitionMin + simtime.Duration(rng.Int63n(int64(sbPartitionMax-sbPartitionMin)))
	}
	return schedule{events: []event{ev}, terminal: TerminalNone}
}

// afterPartitionHeal asserts the lease-mode outcome of a partition that
// outlived the election: exactly one failover, and the old primary —
// which self-fenced before the backup's network went live — stood down
// on the promoted side's supersede notice after the heal. Skipped under
// PreLease (the regression configuration has no fence machinery; its
// failure shows up in the at-most-one-serving verdict instead).
func (c *campaign) afterPartitionHeal() {
	if c.cfg.PreLease {
		return
	}
	state := c.repl.LeaseState()
	ok := c.failovers == 1 &&
		state == core.LeaseSuperseded &&
		!c.repl.Serving() &&
		c.repl.SelfFences.Value() >= 1
	c.verdicts = append(c.verdicts, Verdict{
		Oracle: "supersede", OK: ok,
		Detail: fmt.Sprintf("failovers=%d lease=%s serving=%v fences=%d",
			c.failovers, state, c.repl.Serving(), c.repl.SelfFences.Value()),
	})
}

// afterAckOutage asserts the degradation policy's outcome for a
// backup→primary ack outage the backup heard heartbeats through: the
// backup must never have promoted, and the primary must have fenced.
// StrictSafety must be holding the (re-granted) lease again after the
// heal; Availability must have declared the pair unprotected, which the
// campaign then repairs with a full in-place re-protection.
func (c *campaign) afterAckOutage() {
	if c.cfg.PreLease {
		return
	}
	fences := c.repl.SelfFences.Value()
	if c.cfg.Degrade == core.Availability {
		ok := c.failovers == 0 &&
			c.repl.Unprotected() &&
			c.repl.Unprotects.Value() == 1 &&
			fences >= 1
		c.verdicts = append(c.verdicts, Verdict{
			Oracle: "degrade-policy", OK: ok,
			Detail: fmt.Sprintf("availability: failovers=%d lease=%s unprotects=%d fences=%d",
				c.failovers, c.repl.LeaseState(), c.repl.Unprotects.Value(), fences),
		})
		c.reprotectUnprotected()
		return
	}
	ok := c.failovers == 0 &&
		c.repl.LeaseState() == core.LeaseHeld &&
		fences >= 1
	c.verdicts = append(c.verdicts, Verdict{
		Oracle: "degrade-policy", OK: ok,
		Detail: fmt.Sprintf("strict: failovers=%d lease=%s fences=%d",
			c.failovers, c.repl.LeaseState(), fences),
	})
}

// reprotectUnprotected repairs an Availability-mode unprotected pair
// after the link heals: stop the stale machinery on both ends and
// re-protect the still-running container in place (same hosts, same
// roles) with a full resync, exactly as the degraded-mode policy
// prescribes. Convergence of the new backup's initial sync is an
// oracle.
func (c *campaign) reprotectUnprotected() {
	c.repl.Stop()
	c.repl.Backup.Halt()
	cl := c.repl.Cluster
	view := &core.Cluster{
		Clock:    c.clock,
		Switch:   cl.Switch,
		Primary:  cl.Primary,
		Backup:   cl.Backup,
		ReplLink: cl.ReplLink,
		AckLink:  cl.AckLink,
		Xfer:     cl.Xfer,
	}
	repl, err := core.ReprotectOnto(view, c.repl.Ctr, cl.Primary.Disk, c.replConfig())
	if err != nil {
		c.verdicts = append(c.verdicts, Verdict{Oracle: "convergence", OK: false,
			Detail: "reprotect-unprotected: " + err.Error()})
		return
	}
	c.repl = repl
	repl.Start()
	c.eventf("reprotected-unprotected")

	deadline := c.clock.Now().Add(convergeIn)
	committed := func() bool {
		_, ok := c.repl.Backup.CommittedEpoch()
		return ok
	}
	for !committed() && c.clock.Now() < deadline {
		c.clock.RunFor(5 * simtime.Millisecond)
	}
	ok := committed()
	detail := fmt.Sprintf("re-protection resync committed at t=%d lease=%s",
		int64(c.clock.Now()), c.repl.LeaseState())
	if !ok {
		detail = fmt.Sprintf("re-protection resync did not commit within %s", convergeIn)
	}
	c.verdicts = append(c.verdicts, Verdict{Oracle: "convergence", OK: ok, Detail: detail})
}
