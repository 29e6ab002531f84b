package chaos

import (
	"strings"
	"testing"

	"nilicon/internal/core"
)

// TestFleetCampaignDemo is the acceptance scenario: 8 pairs over 4
// workers plus 2 spares survive 2 concurrent host failures — every
// affected pair fails over or is fenced, re-protects onto the spares,
// and all oracles (output-commit, acked-output, convergence,
// drain-to-zero, determinism) pass.
func TestFleetCampaignDemo(t *testing.T) {
	res := VerifySeed(Config{
		Seed:    1,
		Opts:    core.AllOpts(),
		OptName: "all",
		Fleet:   &Fleet{Pairs: 8, Hosts: 4, Spares: 2, Kills: 2},
	})
	if !res.Passed {
		t.Fatalf("fleet campaign failed:\n%s", res.Trace)
	}
	if res.Failovers == 0 {
		t.Fatal("campaign killed hosts but no pair failed over")
	}
	if len(res.Verdicts) != 6 {
		t.Fatalf("verdicts = %d, want 6 (output-commit, at-most-one-serving, convergence, acked-output, drain, determinism)", len(res.Verdicts))
	}
	if !strings.Contains(res.Trace, "host-dead") {
		t.Fatalf("trace missing host-death events:\n%s", res.Trace)
	}
	// Two concurrent kills: the two host-dead declarations share one
	// virtual-time instant.
	var deadAt []string
	for _, line := range strings.Split(res.Trace, "\n") {
		if strings.Contains(line, "event host-dead") {
			deadAt = append(deadAt, strings.Fields(line)[0])
		}
	}
	if len(deadAt) != 2 || deadAt[0] != deadAt[1] {
		t.Fatalf("host deaths not concurrent: %v", deadAt)
	}
}

// TestFleetCampaignSeeds sweeps a few seeds at a smaller pool size to
// vary kill timing and victim choice.
func TestFleetCampaignSeeds(t *testing.T) {
	for seed := int64(2); seed <= 4; seed++ {
		res := VerifySeed(Config{
			Seed:    seed,
			Opts:    core.AllOpts(),
			OptName: "all",
			Fleet:   &Fleet{Pairs: 4, Hosts: 4, Spares: 1, Kills: 1},
		})
		if !res.Passed {
			t.Fatalf("seed %d failed:\n%s", seed, res.Trace)
		}
	}
}

// TestFleetZoneKill is the zone failure-domain acceptance scenario:
// 3-replica chains placed zone-anti-affine over 3 zones survive the
// loss of an entire failure domain — every host in the drawn zone,
// spares included, dies in one virtual-time instant. Anti-affinity
// guarantees no chain loses more than one member, so every pair either
// fails over (primary in the dead zone) or fences exactly one slot,
// and all oracles hold.
func TestFleetZoneKill(t *testing.T) {
	res := VerifySeed(Config{
		Seed:    1,
		Opts:    core.AllOpts(),
		OptName: "all",
		Fleet:   &Fleet{Pairs: 4, Hosts: 6, Spares: 3, Replicas: 3, Zones: 3},
	})
	if !res.Passed {
		t.Fatalf("zone-kill fleet campaign failed:\n%s", res.Trace)
	}
	if !strings.Contains(res.Trace, "zone=") {
		t.Fatalf("trace missing the drawn zone:\n%s", res.Trace)
	}
	// A whole zone of 9 hosts is 3 victims; at least one of the 4
	// chains must have had its primary there across this seed's draw —
	// if not, the scenario under test (chain failover via the fleet's
	// central election) never ran.
	if res.Failovers == 0 {
		t.Fatal("zone kill produced no failovers")
	}
}

// TestFleetReplicasForceZoneKill pins the defaulting rule: asking for
// chains wider than a pair forces zone-kill mode (and enough zones),
// because independent host draws could take two members of one chain
// in the same instant — outside the fault model the convergence
// accounting assumes.
func TestFleetReplicasForceZoneKill(t *testing.T) {
	cfg := Config{Seed: 7, Fleet: &Fleet{Replicas: 3}}
	cfg.defaults()
	if !cfg.Fleet.killsZone() || cfg.Fleet.Zones != 3 {
		t.Fatalf("defaults: killsZone=%v Zones=%d, want zone-kill with 3 zones", cfg.Fleet.killsZone(), cfg.Fleet.Zones)
	}
	s := drawSchedule(cfg)
	if s.zone < 0 || s.zone >= cfg.Fleet.Zones {
		t.Fatalf("killZone = %d, want a zone in [0,%d)", s.zone, cfg.Fleet.Zones)
	}
	for _, v := range s.victims {
		if v%cfg.Fleet.Zones != s.zone {
			t.Fatalf("victim %d not in zone %d (victims %v)", v, s.zone, s.victims)
		}
	}
}

// TestFleetKillsNeverAdjacent checks the schedule-drawing invariant
// directly across many seeds: victims are never ring-adjacent, so no
// pair can lose both hosts in one instant.
func TestFleetKillsNeverAdjacent(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		cfg := Config{Seed: seed, Fleet: &Fleet{}}
		cfg.defaults()
		s := drawSchedule(cfg)
		if len(s.victims) != 2 {
			t.Fatalf("seed %d: %d victims, want 2", seed, len(s.victims))
		}
		w := cfg.Fleet.Hosts
		d := (s.victims[0] - s.victims[1] + w) % w
		if d == 1 || d == w-1 {
			t.Fatalf("seed %d drew adjacent victims %v", seed, s.victims)
		}
	}
}

// TestFleetConvergenceMissFails shows the convergence oracle fires:
// with no spare host, the survivors of a host kill have nowhere to
// re-protect, so the displaced pairs stay degraded and the verdict
// must FAIL with the re-protection pump's state in its detail, while
// every other oracle still passes.
func TestFleetConvergenceMissFails(t *testing.T) {
	cfg := Config{Seed: 1, Opts: core.AllOpts(), Fleet: &Fleet{Pairs: 2, Hosts: 2, Spares: 0, Kills: 1}}
	if err := Check(cfg); err != nil {
		t.Fatalf("Check: %v", err)
	}
	res := Run(cfg)
	if res.Passed {
		t.Fatalf("campaign passed with nowhere to re-protect:\n%s", res.Trace)
	}
	for _, v := range res.Verdicts {
		switch {
		case v.Oracle == "convergence":
			if v.OK {
				t.Fatalf("convergence verdict passed: %s", v.Detail)
			}
			if !strings.Contains(v.Detail, "pump=queued:") {
				t.Fatalf("convergence FAIL detail lacks the pump state: %s", v.Detail)
			}
		case !v.OK:
			t.Fatalf("verdict %s failed, want only convergence to fail: %s", v.Oracle, v.Detail)
		}
	}
	if _, ok := verdict(res, "convergence"); !ok {
		t.Fatal("no convergence verdict")
	}
}
