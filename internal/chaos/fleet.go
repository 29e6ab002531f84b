package chaos

import (
	"fmt"
	"strings"

	"nilicon/internal/cluster"
	"nilicon/internal/core"
	"nilicon/internal/simtime"
)

// The fleet topology (Config.Fleet, DESIGN.md §9) runs many protected
// chains over a pool of hosts under the cluster control plane: its
// schedule kills whole hosts — concurrently, in the same virtual-time
// instant — and on top of the shared oracles it audits convergence:
// every pair whose primary died fails over, every chain slot on a dead
// host is fenced and re-protected, the whole fleet returns to
// Protected, and the control plane convicted exactly the dead hosts.

// fleetAudit is the ground truth the host kill leaves for the
// convergence audit.
type fleetAudit struct {
	failovers, fences int
	// displaced counts the chains with an agent on a victim host: each
	// needs a failover, a re-protection or a chain repair.
	displaced int
	victim    map[int]bool
	// detectable marks the victims hosting at least one agent at the
	// kill instant: those MUST be declared dead. A victim spare with
	// nothing placed on it is legitimately undiscovered until a repair
	// probes it — and that probe costs one extra fence, which is why the
	// fence count is a floor, not an equality.
	detectable map[int]bool
}

// drawHostKill derives the kill instant and the victim hosts from the
// seed: one timestamp inside the writer window, and Kills hosts none of
// which are ring-adjacent — or, when the fleet kills a zone
// (Fleet.killsZone), every host of one drawn failure domain.
func drawHostKill(cfg Config) schedule {
	f := cfg.Fleet
	rng := seededRand(cfg.Seed, 0x9e3779b97f4a7c15, 0xd1b54a32d192ed03)
	lo := int64(fleetWarmup + 150*simtime.Millisecond)
	hi := int64(fleetWarmup + cfg.Duration - 150*simtime.Millisecond)
	if hi <= lo {
		hi = lo + 1
	}
	s := schedule{killAt: simtime.Duration(lo + rng.Int63n(hi-lo)), zone: -1}
	if f.killsZone() {
		// Hosts map to zones by index (i mod Zones, the fleet's
		// placement rule); spares die with their zone.
		s.zone = rng.Intn(f.Zones)
		for h := 0; h < f.Hosts+f.Spares; h++ {
			if h%f.Zones == s.zone {
				s.victims = append(s.victims, h)
			}
		}
		return s
	}
	w := f.Hosts
	adjacent := func(a, b int) bool {
		d := (a - b + w) % w
		return d == 1 || d == w-1
	}
	for len(s.victims) < f.Kills {
		var candidates []int
		for h := 0; h < w; h++ {
			ok := true
			for _, v := range s.victims {
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
		s.victims = append(s.victims, candidates[rng.Intn(len(candidates))])
	}
	return s
}

// fleetParams is the pool shape and control-plane policy of cfg's
// fleet: everything cluster placement reads.
func (cfg *Config) fleetParams() cluster.Params {
	f := cfg.Fleet
	return cluster.Params{
		Workers:  f.Hosts,
		Spares:   f.Spares,
		Pairs:    f.Pairs,
		Replicas: f.Replicas,
		Zones:    f.Zones,
		Degrade:  cfg.Degrade,
		// Two concurrent resyncs: with several pairs displaced per host
		// kill, strictly serial re-protection would leave the fleet
		// degraded for most of the campaign.
		MaxConcurrentResyncs: 2,
	}
}

func (c *campaign) buildFleet(clock *simtime.Clock) {
	c.warmup, c.convergeIn = fleetWarmup, fleetConvergeIn
	params := c.cfg.fleetParams()
	if !c.cfg.PreLease {
		params.Lease = core.DefaultLease()
	}
	params.Opts = &c.cfg.Opts
	params.Workload = func(string) cluster.Workload { return &kvServer{prof: c.prof} }
	pool, err := cluster.NewSharded(clock, params)
	if err != nil {
		panic("chaos: fleet does not fit (reject it with Check first): " + err.Error())
	}
	c.clock = pool.Clock
	c.pool = pool
	c.timeline = pool.Timeline
	pool.Eventf = c.eventf
}

// scheduleHostKill kills every victim in the same virtual-time instant
// and records what the convergence audit must then find.
func (c *campaign) scheduleHostKill() {
	a := &c.audit
	a.victim, a.detectable = map[int]bool{}, map[int]bool{}
	c.clock.ScheduleAt(simtime.Time(c.sched.killAt), func() {
		for _, v := range c.sched.victims {
			a.victim[v] = true
		}
		for _, pr := range c.pool.Pairs {
			hit := a.victim[pr.PrimaryHost]
			if hit {
				a.failovers++
				a.detectable[pr.PrimaryHost] = true
			}
			// Every chain slot on a victim host fences — unless the
			// primary died with it: a failover halts the chain's losing
			// replicas, and one whose host the detector has not yet
			// declared dead is halted without a fence.
			for _, rh := range pr.ReplicaHosts {
				if a.victim[rh] {
					if !a.victim[pr.PrimaryHost] {
						a.fences++
					}
					a.detectable[rh] = true
					hit = true
				}
			}
			if hit {
				a.displaced++
			}
		}
		for _, v := range c.sched.victims {
			c.pool.KillHost(v)
		}
		c.kills = append(c.kills, c.clock.Now())
	})
}

// awaitFleetConvergence waits for every pair to be back to Protected
// and audits the outcome: the expected failover count, at least the
// expected fences, and the control plane's beliefs against ground
// truth — every host declared dead must be an actual victim (no
// wrongful conviction, the only path to fencing an innocent slot), and
// every victim that hosted an agent must be declared. With that, fences
// beyond the floor are provably repair probes into dead spares.
//
// Re-protection is rolling (Params.MaxConcurrentResyncs at a time), so
// the wait follows progress rather than a fixed deadline: it goes on
// while some chain regained protection within the last fleetConvergeIn,
// up to one fleetConvergeIn per displaced chain. A miss names the
// re-protection pump's state.
func (c *campaign) awaitFleetConvergence() {
	start := c.clock.Now()
	limit := start.Add(simtime.Duration(max(c.audit.displaced, 1)) * fleetConvergeIn)
	progress := start
	was := make([]bool, len(c.pool.Pairs))
	for !c.allProtected() && c.clock.Now() < limit && c.clock.Now().Sub(progress) < fleetConvergeIn {
		for i, pr := range c.pool.Pairs {
			was[i] = pr.State == cluster.Protected
		}
		c.clock.RunFor(5 * simtime.Millisecond)
		for i, pr := range c.pool.Pairs {
			if !was[i] && pr.State == cluster.Protected {
				progress = c.clock.Now()
			}
		}
	}
	failovers, fences := 0, 0
	for _, pr := range c.pool.Pairs {
		failovers += pr.Failovers
		fences += pr.Fences
	}
	belief := ""
	for _, h := range c.pool.Hosts {
		if !h.Alive && !c.audit.victim[h.Index] {
			belief = fmt.Sprintf(" wrongful-conviction=%s", h.Name)
			break
		}
	}
	for _, v := range c.sched.victims {
		if c.audit.detectable[v] && c.pool.Hosts[v].Alive {
			belief = fmt.Sprintf(" undetected-victim=%s", c.pool.Hosts[v].Name)
			break
		}
	}
	var states []string
	for _, pr := range c.pool.Pairs {
		states = append(states, fmt.Sprintf("%s=%s", pr.ID, pr.State))
	}
	pump := ""
	if !c.allProtected() {
		pump = fmt.Sprintf(" pump=queued:%d,resyncing:%d/%d",
			c.pool.QueuedReprotects(), c.pool.ActiveResyncs(), c.pool.Params.MaxConcurrentResyncs)
	}
	ok := c.allProtected() && failovers == c.audit.failovers && fences >= c.audit.fences && belief == ""
	c.verdicts = append(c.verdicts, Verdict{
		Oracle: "convergence", OK: ok,
		Detail: fmt.Sprintf("failovers=%d/%d fences=%d/>=%d%s%s states=%s at t=%d",
			failovers, c.audit.failovers, fences, c.audit.fences, belief, pump, strings.Join(states, ","), int64(c.clock.Now())),
	})
}

func (c *campaign) allProtected() bool {
	for _, pr := range c.pool.Pairs {
		if pr.State != cluster.Protected {
			return false
		}
	}
	return true
}

// emitFleetFinal ends a fleet trace with every pair's end state — its
// backup and committed epoch are the lead slot's — and the fleet
// counters.
func (c *campaign) emitFleetFinal(res Result) {
	for _, pr := range c.pool.Pairs {
		lead := pr.Repl.LeadSlot()
		rel, _ := pr.Repl.ReleasedEpoch()
		com, _ := pr.Repl.ReplicaAgent(lead).CommittedEpoch()
		fmt.Fprintf(&c.trace, "final pair=%s state=%s pri=%d bak=%d failovers=%d fences=%d reprotects=%d rel=%d com=%d\n",
			pr.ID, pr.State, pr.PrimaryHost, pr.ReplicaHosts[lead], pr.Failovers, pr.Fences, pr.Reprotects, rel, com)
	}
	fmt.Fprintf(&c.trace, "counters epochs=%d drops=%d sent=%d acked=%d failovers=%d wire=%d\n",
		res.Epochs, res.LinkDrops, res.SentWrites, res.AckedWrites, res.Failovers, c.pool.WireBytes())
}
