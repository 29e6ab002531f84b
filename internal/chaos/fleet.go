package chaos

import (
	"fmt"
	"strings"

	"nilicon/internal/cluster"
	"nilicon/internal/container"
	"nilicon/internal/core"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
)

// Fleet campaigns extend the single-pair chaos engine to host
// granularity (DESIGN.md §9): a pool of hosts runs many protected
// pairs, the fault schedule kills whole hosts — concurrently, in the
// same virtual-time instant — and the oracles check the fleet-level
// invariants: every pair whose primary died fails over, every pair
// whose backup died is fenced and re-protected, no pair's
// client-visible output violates output-commit at any point, every
// acknowledged write survives, the whole fleet converges back to
// Protected, and after quiesce nothing is retained on any host's
// replication NIC. Like the single-pair engine, a fleet campaign is a
// pure function of its config; the same seed reproduces a
// byte-identical trace.

// FleetConfig parameterizes one fleet campaign.
type FleetConfig struct {
	Seed    int64
	Opts    core.OptSet
	OptName string
	// Pool shape. Defaults: 8 pairs over 4 workers + 2 spares, 2 kills.
	Pairs   int
	Workers int
	Spares  int
	// Kills is how many hosts die — all in the same instant. Victims are
	// never ring-adjacent: a pair's backup sits on the next worker in the
	// placement ring, so adjacent victims would take both of a pair's
	// hosts at once, which is outside NiLiCon's fault model (one failure
	// per pair at a time).
	Kills int
	// Replicas/Zones configure f+1 chains and failure domains on the
	// pool (cluster.Params). Replicas > 2 forces KillZone: zone
	// anti-affinity is what guarantees a single instant takes at most
	// one host from any chain, which the convergence accounting (and
	// the fault model: f failures spread across domains, not two hosts
	// of one chain) depends on.
	Replicas int
	Zones    int
	// KillZone replaces the Kills independent host victims with an
	// entire failure domain drawn from the seed: every host in the
	// chosen zone — workers and spares — dies in the same instant.
	KillZone bool
	// Duration is the writer window between warmup and verification.
	// Default 900 ms.
	Duration simtime.Duration
	// PreLease disables per-pair output-release lease arbitration
	// (the pre-lease fleet behavior); Degrade selects the lease
	// degradation policy.
	PreLease bool
	Degrade  core.DegradePolicy
	// Shards is the engine's lane count (0 is taken as 1): one shard per
	// host plus the control-plane root shard, folded onto that many
	// lanes. Any lane count produces an identical trace.
	Shards int
	// EngineWorkers enables conservative-window mode with that many
	// window-drain goroutines (see chaos.Config.Workers — every shard is
	// pinned to one lane so the detector's cross-shard scheduling stays
	// legal and the trace stays byte-identical). Named to avoid clashing
	// with Workers, the host-pool field above.
	EngineWorkers int
	// Traffic, when set, replaces the per-pair fixed-interval writers
	// with an open-loop replay of this trace against every pair, judged
	// fleet-wide against SLO (see fleettraffic.go). SLOSlack pads the
	// kill interval for the slo-windows oracle (default 500 ms).
	Traffic  *traffic.Trace
	SLO      traffic.SLO
	SLOSlack simtime.Duration
}

func (cfg *FleetConfig) defaults() {
	if cfg.Pairs <= 0 {
		cfg.Pairs = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Spares < 0 {
		cfg.Spares = 0
	}
	if cfg.Kills <= 0 {
		cfg.Kills = 2
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 900 * simtime.Millisecond
	}
	if cfg.OptName == "" {
		cfg.OptName = "custom"
	}
	if cfg.Replicas < 2 {
		cfg.Replicas = 2
	}
	if cfg.Zones < 1 {
		cfg.Zones = 1
	}
	if cfg.Replicas > 2 {
		cfg.KillZone = true
		if cfg.Zones < cfg.Replicas {
			cfg.Zones = cfg.Replicas
		}
	}
	if cfg.KillZone && cfg.Zones < 2 {
		cfg.Zones = 2
	}
}

// Fleet campaign phase layout (virtual time).
const (
	fleetWarmup     = 600 * simtime.Millisecond
	fleetConvergeIn = 6 * simtime.Second
)

// kvWorkload adapts the campaign's kv server to the fleet's Workload
// interface.
type kvWorkload struct{ app *kvApp }

func (w *kvWorkload) Install(ctr *container.Container) { w.app = newKVApp(ctr) }

func (w *kvWorkload) Reattach(ctr *container.Container, state any) {
	w.app.RestoreState(state)
	w.app.attach(ctr)
}

type fleetCampaign struct {
	cfg   FleetConfig
	clock *simtime.Clock
	fleet *cluster.Fleet

	clients []*kvClient
	sent    []int
	acked   []int

	killAt   simtime.Duration
	victims  []int
	killZone int // -1 unless cfg.KillZone

	trace    strings.Builder
	verdicts []Verdict

	ocChecks     int
	ocViolations int
	ocDetail     string

	svChecks     int
	svViolations int
	svDetail     string

	// Traffic mode (cfg.Traffic != nil).
	traffic   *fleetTraffic
	sloReport *traffic.Report
}

// RunFleet executes one fleet campaign.
func RunFleet(cfg FleetConfig) Result {
	cfg.defaults()
	c := &fleetCampaign{cfg: cfg}
	c.drawKills()
	c.build()
	c.emitHeader()
	c.execute()
	return c.finish()
}

// VerifyFleetSeed runs the campaign twice and adds the determinism
// oracle: byte-identical traces.
func VerifyFleetSeed(cfg FleetConfig) Result {
	a := RunFleet(cfg)
	b := RunFleet(cfg)
	ok := a.Trace == b.Trace
	detail := "two runs produced byte-identical traces"
	if !ok {
		detail = fmt.Sprintf("trace mismatch: run1 %d bytes, run2 %d bytes", len(a.Trace), len(b.Trace))
	}
	a.Verdicts = append(a.Verdicts, Verdict{Oracle: "determinism", OK: ok, Detail: detail})
	a.Passed = a.Passed && ok
	return a
}

// drawKills derives the kill instant and the victim hosts from the
// seed: one timestamp inside the writer window, and Kills workers none
// of which are ring-adjacent.
func (c *fleetCampaign) drawKills() {
	z := uint64(c.cfg.Seed)*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	rng := simtime.NewRand(int64(z >> 1))

	lo := int64(fleetWarmup + 150*simtime.Millisecond)
	hi := int64(fleetWarmup + c.cfg.Duration - 150*simtime.Millisecond)
	if hi <= lo {
		hi = lo + 1
	}
	c.killAt = simtime.Duration(lo + rng.Int63n(hi-lo))

	c.killZone = -1
	if c.cfg.KillZone {
		// One failure domain burns down: every host whose index maps to
		// the drawn zone (i mod Zones, the fleet's placement rule) dies
		// at the kill instant — spares included.
		c.killZone = rng.Intn(c.cfg.Zones)
		for h := 0; h < c.cfg.Workers+c.cfg.Spares; h++ {
			if h%c.cfg.Zones == c.killZone {
				c.victims = append(c.victims, h)
			}
		}
		return
	}

	w := c.cfg.Workers
	adjacent := func(a, b int) bool {
		d := (a - b + w) % w
		return d == 1 || d == w-1
	}
	for len(c.victims) < c.cfg.Kills {
		var candidates []int
		for h := 0; h < w; h++ {
			ok := true
			for _, v := range c.victims {
				if h == v || adjacent(h, v) {
					ok = false
					break
				}
			}
			if ok {
				candidates = append(candidates, h)
			}
		}
		if len(candidates) == 0 {
			break // pool too small for more non-adjacent kills
		}
		c.victims = append(c.victims, candidates[rng.Intn(len(candidates))])
	}
}

func (c *fleetCampaign) build() {
	var lease core.LeaseConfig
	if !c.cfg.PreLease {
		lease = core.DefaultLease()
	}
	params := cluster.Params{
		Workers:  c.cfg.Workers,
		Spares:   c.cfg.Spares,
		Pairs:    c.cfg.Pairs,
		Replicas: c.cfg.Replicas,
		Zones:    c.cfg.Zones,
		Seed:     c.cfg.Seed,
		Opts:     &c.cfg.Opts,
		Lease:    lease,
		Degrade:  c.cfg.Degrade,
		// Two concurrent resyncs: with several pairs displaced per host
		// kill, strictly serial re-protection would leave the fleet
		// degraded for most of the campaign.
		MaxConcurrentResyncs: 2,
		Workload:             func(string) cluster.Workload { return &kvWorkload{} },
	}
	f, err := cluster.NewSharded(newEngine(c.cfg.Shards, c.cfg.EngineWorkers), params)
	if err != nil {
		panic("chaos: fleet build failed: " + err.Error())
	}
	c.clock = f.Clock
	c.fleet = f
	f.Eventf = func(format string, args ...any) {
		fmt.Fprintf(&c.trace, "t=%d event %s\n", int64(c.clock.Now()), fmt.Sprintf(format, args...))
	}
	c.clients = make([]*kvClient, c.cfg.Pairs)
	c.sent = make([]int, c.cfg.Pairs)
	c.acked = make([]int, c.cfg.Pairs)
}

func (c *fleetCampaign) emitHeader() {
	lease := "on"
	if c.cfg.PreLease {
		lease = "off"
	}
	fmt.Fprintf(&c.trace, "chaos-fleet seed=%d opts=%s pairs=%d workers=%d spares=%d replicas=%d zones=%d duration=%s lease=%s degrade=%s\n",
		c.cfg.Seed, c.cfg.OptName, c.cfg.Pairs, c.cfg.Workers, c.cfg.Spares,
		c.cfg.Replicas, c.cfg.Zones, c.cfg.Duration, lease, c.cfg.Degrade)
	if c.killZone >= 0 {
		fmt.Fprintf(&c.trace, "sched kill-at=%d zone=%d victims=%v\n", int64(c.killAt), c.killZone, c.victims)
	} else {
		fmt.Fprintf(&c.trace, "sched kill-at=%d victims=%v\n", int64(c.killAt), c.victims)
	}
	if tr := c.cfg.Traffic; tr != nil {
		slo := c.cfg.SLO.WithDefaults()
		fmt.Fprintf(&c.trace, "traffic name=%s reqs=%d clients=%d keys=%d dur=%s slo=p%v<%s/%s\n",
			tr.Header.Name, len(tr.Reqs), tr.Header.Clients, tr.Header.Keys, tr.Duration(),
			slo.Quantile, slo.Target, slo.Window)
	}
}

func (c *fleetCampaign) execute() {
	f := c.fleet
	f.Start()

	oracle := simtime.NewTicker(c.clock, simtime.Millisecond, func() {
		c.checkOutputCommit()
		c.checkServing()
		if c.traffic != nil {
			c.sampleTraffic()
		}
	})

	writeUntil := fleetWarmup + c.cfg.Duration
	if c.cfg.Traffic != nil {
		// Trace-driven open-loop replay against every pair
		// (fleettraffic.go) instead of the fixed-interval writers.
		c.startTraffic()
	} else {
		// One client per pair on the shared LAN, connected early so even a
		// long first checkpoint cannot starve the handshake.
		c.clock.Schedule(simtime.Millisecond, func() {
			for i, pr := range f.Pairs {
				ip := simnet.Addr(fmt.Sprintf("10.2.0.%d", i+1))
				c.clients[i] = newKVClientOn(f.NewClient(ip), pr.IP)
			}
		})

		// Writers: every pair gets one unique SET every 10 ms.
		var writer *simtime.Ticker
		c.clock.Schedule(fleetWarmup, func() {
			writer = simtime.NewTicker(c.clock, writeEvery, func() {
				if simtime.Duration(c.clock.Now()) >= writeUntil {
					writer.Stop()
					return
				}
				for i := range c.clients {
					if c.clients[i].sock == nil {
						continue
					}
					c.clients[i].send(fmt.Sprintf("SET k%d v%d", c.sent[i], c.sent[i]))
					c.sent[i]++
				}
			})
		})
	}

	// The host kills: all victims in the same virtual-time instant.
	// detectable marks the victims hosting at least one agent at the kill
	// instant: those MUST be declared dead. A victim spare with nothing
	// placed on it is legitimately undiscovered until a repair probes it
	// — and that probe costs one extra fence, which is why the fence
	// count below is a floor, not an equality.
	expFailovers, expFences := 0, 0
	isVictim := make(map[int]bool)
	detectable := make(map[int]bool)
	c.clock.ScheduleAt(simtime.Time(c.killAt), func() {
		for _, v := range c.victims {
			isVictim[v] = true
		}
		for _, pr := range f.Pairs {
			if isVictim[pr.PrimaryHost] {
				expFailovers++
				detectable[pr.PrimaryHost] = true
			}
			// Every chain slot on a victim host fences (reduces to the
			// classic backup-host check: ReplicaHosts[0] == BackupHost).
			for _, rh := range pr.ReplicaHosts {
				if isVictim[rh] {
					expFences++
					detectable[rh] = true
				}
			}
		}
		for _, v := range c.victims {
			f.KillHost(v)
		}
		if c.traffic != nil {
			c.traffic.killFired = true
		}
	})

	c.clock.RunUntil(simtime.Time(writeUntil + terminalGap))
	if c.traffic != nil {
		issued, completed := 0, 0
		for _, rep := range c.traffic.reps {
			issued += rep.Issued()
		}
		completed = c.traffic.judge.Completions()
		c.eventf("traffic-fault-window-end issued=%d completed=%d", issued, completed)
	} else {
		for i := range c.clients {
			c.acked[i] = c.clients[i].okReplies()
		}
		c.eventf("writers-stopped sent=%d acked=%d", sum(c.sent), sum(c.acked))
	}

	// Convergence: every pair back to Protected, with the expected
	// failover and fence counts, within the bound.
	deadline := c.clock.Now().Add(fleetConvergeIn)
	for !c.allProtected() && c.clock.Now() < deadline {
		c.clock.RunFor(5 * simtime.Millisecond)
	}
	gotFailovers, gotFences := 0, 0
	for _, pr := range f.Pairs {
		gotFailovers += pr.Failovers
		gotFences += pr.Fences
	}
	// Belief audit against ground truth: every host the control plane
	// declared dead must be an actual victim (no wrongful conviction —
	// the only path to fencing an innocent slot), and every victim that
	// hosted an agent at kill time must be declared. With that, fences
	// beyond the floor are provably repair probes into dead spares.
	belief := ""
	for _, h := range f.Hosts {
		if !h.Alive && !isVictim[h.Index] {
			belief = fmt.Sprintf(" wrongful-conviction=%s", h.Name)
			break
		}
	}
	for _, v := range c.victims {
		if detectable[v] && f.Hosts[v].Alive {
			belief = fmt.Sprintf(" undetected-victim=%s", f.Hosts[v].Name)
			break
		}
	}
	convOK := c.allProtected() && gotFailovers == expFailovers && gotFences >= expFences && belief == ""
	c.verdicts = append(c.verdicts, Verdict{
		Oracle: "convergence", OK: convOK,
		Detail: fmt.Sprintf("failovers=%d/%d fences=%d/>=%d%s states=%s at t=%d",
			gotFailovers, expFailovers, gotFences, expFences, belief, c.stateSummary(), int64(c.clock.Now())),
	})

	if c.traffic != nil {
		c.verifyTrafficData()
	} else {
		c.verifyData()
	}
	c.quiesceDrain()
	if c.traffic != nil {
		c.finishTraffic()
	}
	oracle.Stop()
}

func (c *fleetCampaign) eventf(format string, args ...any) {
	fmt.Fprintf(&c.trace, "t=%d event %s\n", int64(c.clock.Now()), fmt.Sprintf(format, args...))
}

func (c *fleetCampaign) allProtected() bool {
	for _, pr := range c.fleet.Pairs {
		if pr.State != cluster.Protected {
			return false
		}
	}
	return true
}

func (c *fleetCampaign) stateSummary() string {
	var parts []string
	for _, pr := range c.fleet.Pairs {
		parts = append(parts, fmt.Sprintf("%s=%s", pr.ID, pr.State))
	}
	return strings.Join(parts, ",")
}

// checkOutputCommit samples the output-commit invariant on every pair
// with an active replicator generation: released output never runs
// ahead of the quorum-committed epoch (quorumCommitted — reduces to
// the backup's committed epoch for classic pairs).
func (c *fleetCampaign) checkOutputCommit() {
	for _, pr := range c.fleet.Pairs {
		if pr.State != cluster.Protected && pr.State != cluster.Resyncing {
			continue
		}
		rel, relOK := pr.Repl.ReleasedEpoch()
		if !relOK {
			continue
		}
		c.ocChecks++
		com, comOK := quorumCommitted(pr.Repl)
		if !comOK || rel > com {
			c.ocViolations++
			if c.ocDetail == "" {
				c.ocDetail = fmt.Sprintf("pair=%s released=%d committed=%d/%v at t=%d",
					pr.ID, rel, com, comOK, int64(c.clock.Now()))
			}
		}
	}
}

// checkServing samples the split-brain invariant per pair: at every
// simulated instant at most one of a pair's replicas releases output.
// pr.Repl always points at the current replicator generation (the
// re-protection pump swaps it), so a fenced-then-re-protected pair is
// judged on its live machinery.
func (c *fleetCampaign) checkServing() {
	for _, pr := range c.fleet.Pairs {
		c.svChecks++
		if n := servingCount(pr.Repl); n > 1 {
			c.svViolations++
			if c.svDetail == "" {
				c.svDetail = fmt.Sprintf("pair=%s dual-serving state=%s lease=%s at t=%d",
					pr.ID, pr.State, pr.Repl.LeaseState(), int64(c.clock.Now()))
			}
		}
	}
}

// verifyData is the fleet acked-output oracle: per pair, every SET must
// end up acknowledged and every key must read back its value from the
// (possibly failed-over and re-protected) server.
func (c *fleetCampaign) verifyData() {
	if !c.cfg.Opts.PlugInput {
		c.verdicts = append(c.verdicts, Verdict{Oracle: "acked-output", OK: true,
			Detail: "skipped: firewall input blocking drops client segments for seconds-long RTO backoffs"})
		return
	}
	// Let post-failover retransmissions settle, then read everything back
	// on each pair's original connection (TCP FIFO puts the GETs last).
	c.clock.RunFor(2 * simtime.Second)
	maxKeys := 0
	for i := range c.clients {
		if c.sent[i] > maxKeys {
			maxKeys = c.sent[i]
		}
	}
	for k := 0; k < maxKeys; k++ {
		for i := range c.clients {
			if k < c.sent[i] {
				c.clients[i].send(fmt.Sprintf("GET k%d", k))
			}
		}
		c.clock.RunFor(2 * simtime.Millisecond)
	}
	deadline := c.clock.Now().Add(fleetConvergeIn)
	pending := func() bool {
		for i := range c.clients {
			if len(c.clients[i].replies) < 2*c.sent[i] {
				return true
			}
		}
		return false
	}
	for pending() && c.clock.Now() < deadline {
		c.clock.RunFor(10 * simtime.Millisecond)
	}

	ok := true
	detail := fmt.Sprintf("%d writes across %d pairs all readable", sum(c.sent), len(c.clients))
	for i := range c.clients {
		cli, n := c.clients[i], c.sent[i]
		if len(cli.replies) < 2*n {
			ok = false
			detail = fmt.Sprintf("pair %d: only %d/%d replies arrived", i, len(cli.replies), 2*n)
			break
		}
		for k := 0; k < n && ok; k++ {
			if cli.replies[k] != "OK" {
				ok = false
				detail = fmt.Sprintf("pair %d: SET k%d reply = %q", i, k, cli.replies[k])
			} else if got, want := cli.replies[n+k], fmt.Sprintf("v%d", k); got != want {
				ok = false
				detail = fmt.Sprintf("pair %d: GET k%d = %q, want %q", i, k, got, want)
			}
		}
		if !ok {
			break
		}
	}
	c.verdicts = append(c.verdicts, Verdict{Oracle: "acked-output", OK: ok, Detail: detail})
}

// quiesceDrain stops new epochs fleet-wide and asserts that nothing is
// retained on any host's replication NIC — including the dead hosts,
// whose schedulers drain clock-driven into their downed links.
func (c *fleetCampaign) quiesceDrain() {
	c.fleet.Quiesce()
	c.eventf("quiesce")
	c.clock.RunFor(quiesceAfter)

	inflight := 0
	for _, pr := range c.fleet.Pairs {
		if pr.State == cluster.Protected {
			inflight += pr.Repl.InflightEpochs()
		}
	}
	flows, queued := c.fleet.DrainStats()
	ok := inflight == 0 && flows == 0 && queued == 0
	c.verdicts = append(c.verdicts, Verdict{
		Oracle: "drain-to-zero", OK: ok,
		Detail: fmt.Sprintf("inflight=%d flows=%d queued=%d across %d hosts after quiesce",
			inflight, flows, queued, len(c.fleet.Hosts)),
	})
}

func (c *fleetCampaign) finish() Result {
	c.verdicts = append([]Verdict{{
		Oracle: "output-commit",
		OK:     c.ocViolations == 0,
		Detail: fmt.Sprintf("%d samples, %d violations %s", c.ocChecks, c.ocViolations, c.ocDetail),
	}, {
		Oracle: "at-most-one-serving",
		OK:     c.svViolations == 0,
		Detail: fmt.Sprintf("%d samples, %d dual-serving instants %s", c.svChecks, c.svViolations, c.svDetail),
	}}, c.verdicts...)

	var epochs uint64
	var drops int64
	failovers := 0
	for _, pr := range c.fleet.Pairs {
		epochs += pr.Repl.Epochs()
		failovers += pr.Failovers
	}
	// Replay-divergence oracle at host granularity: every pair that
	// failed over under the record/replay configuration must have
	// replayed its committed log suffix back to the recorded egress
	// digests (the control plane keeps the last recovery's stats).
	if c.cfg.Opts.RecordReplay && failovers > 0 {
		ok := true
		detail := fmt.Sprintf("%d failovers, all replayed to recorded egress digests", failovers)
		for _, pr := range c.fleet.Pairs {
			if pr.Failovers == 0 {
				continue
			}
			if pr.LastFailover == nil || pr.LastFailover.Replay == nil {
				ok = false
				detail = fmt.Sprintf("pair %s failed over without replay stats", pr.ID)
				break
			}
			if r := pr.LastFailover.Replay; r.Diverged {
				ok = false
				detail = fmt.Sprintf("pair %s diverged at segment %d", pr.ID, r.DivergedSeq)
				break
			}
		}
		c.verdicts = append(c.verdicts, Verdict{Oracle: "replay-divergence", OK: ok, Detail: detail})
	}
	for _, h := range c.fleet.Hosts {
		drops += h.NIC.Drops()
	}
	res := Result{
		Seed:        c.cfg.Seed,
		OptName:     c.cfg.OptName,
		Terminal:    fmt.Sprintf("host-kill×%d", len(c.victims)),
		Verdicts:    c.verdicts,
		Epochs:      epochs,
		LinkDrops:   drops,
		AckedWrites: sum(c.acked),
		SentWrites:  sum(c.sent),
		Failovers:   failovers,
		SLO:         c.sloReport,
	}
	if ft := c.traffic; ft != nil {
		for _, rep := range ft.reps {
			res.SentWrites += rep.Issued()
		}
		res.AckedWrites = ft.judge.Completions()
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
	for _, pr := range c.fleet.Pairs {
		rel, _ := pr.Repl.ReleasedEpoch()
		com, _ := pr.Repl.Backup.CommittedEpoch()
		fmt.Fprintf(&c.trace, "final pair=%s state=%s pri=%d bak=%d failovers=%d fences=%d reprotects=%d rel=%d com=%d\n",
			pr.ID, pr.State, pr.PrimaryHost, pr.BackupHost, pr.Failovers, pr.Fences, pr.Reprotects, rel, com)
	}
	fmt.Fprintf(&c.trace, "counters epochs=%d drops=%d sent=%d acked=%d failovers=%d wire=%d\n",
		res.Epochs, res.LinkDrops, res.SentWrites, res.AckedWrites, res.Failovers, c.fleet.WireBytes())
	res.Trace = c.trace.String()
	var csv strings.Builder
	c.fleet.Timeline.WriteCSV(&csv)
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
