package chaos

import (
	"strings"
	"testing"

	"nilicon/internal/cluster"
	"nilicon/internal/core"
)

// requireAckedFailover fails unless the campaign passed, failed over at
// least one chain and ran the acked-output oracle.
func requireAckedFailover(t *testing.T, res Result) {
	t.Helper()
	requirePassed(t, res)
	if res.Failovers == 0 {
		t.Fatalf("%s: the zone kill took no chain's primary", header(res))
	}
	if v, ok := verdict(res, "acked-output"); !ok || strings.Contains(v.Detail, "skipped") {
		t.Fatalf("%s: acked-output oracle did not run: %+v", header(res), v)
	}
}

// TestChainKillPrimaryPreservesAckedOutput is the f=1 acceptance claim
// on 3-replica chains: a zone kill takes the primary host of some
// chains, the fleet control plane promotes one replica of each, and
// every acknowledged write reads back.
func TestChainKillPrimaryPreservesAckedOutput(t *testing.T) {
	for seed := int64(2); seed <= 4; seed++ {
		requireAckedFailover(t, VerifySeed(Config{
			Seed: seed, Opts: core.AllOpts(), OptName: "all",
			Fleet: &Fleet{Pairs: 4, Hosts: 6, Spares: 3, Replicas: 3, Zones: 3},
		}))
	}
}

// TestChainWiderChains runs the f=1 claim at width 4: the chain
// machinery is not a 3-replica special case.
func TestChainWiderChains(t *testing.T) {
	requireAckedFailover(t, VerifySeed(Config{
		Seed: 3, Opts: core.AllOpts(), OptName: "all",
		Fleet: &Fleet{Pairs: 4, Hosts: 8, Spares: 4, Replicas: 4, Zones: 4},
	}))
}

// TestChainTwoSimultaneousFailures is the f=2 acceptance claim: two of
// the three failure domains die in the same virtual instant, so every
// 3-replica chain loses two members at once and each chain whose
// primary was among them loses its primary and a replica together.
// With the strict chain-tail quorum every released epoch was committed
// on the surviving replica too, so the promoted survivor reads back
// every acknowledged write and the fleet re-protects on what is left.
func TestChainTwoSimultaneousFailures(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := Config{
			Seed: seed, Opts: core.AllOpts(), OptName: "all",
			Fleet: &Fleet{Pairs: 4, Hosts: 6, Spares: 6, Replicas: 3, Zones: 3},
		}
		cfg.defaults()
		s := drawSchedule(cfg)
		second := (s.zone + 1) % cfg.Fleet.Zones
		for h := 0; h < cfg.Fleet.Hosts+cfg.Fleet.Spares; h++ {
			if h%cfg.Fleet.Zones == second {
				s.victims = append(s.victims, h)
			}
		}
		res := withDeterminism(run(cfg, s), run(cfg, s))
		requireAckedFailover(t, res)

		// Zone anti-affinity puts one member of every chain in each
		// zone, so a chain whose primary died also lost a replica.
		placement, err := cluster.Place(cfg.fleetParams())
		if err != nil {
			t.Fatal(err)
		}
		dead := map[int]bool{}
		for _, v := range s.victims {
			dead[v] = true
		}
		double := 0
		for _, c := range placement {
			lost := 0
			for _, h := range c.Backups {
				if dead[h] {
					lost++
				}
			}
			if dead[c.Primary] && lost == 1 {
				double++
			}
		}
		if double == 0 || res.Failovers != double {
			t.Fatalf("seed %d: failovers = %d, want one per chain that lost its primary and a replica (%d)",
				seed, res.Failovers, double)
		}
	}
}
