package harness

import (
	"nilicon/internal/chaos"
	"nilicon/internal/core"
	"nilicon/internal/simtime"
)

// FleetScenario is one host-fault entry in the chaos sweep matrix: a
// pool shape plus how many hosts die (concurrently, in one instant).
// Replay runs the pairs under the HyCoR-mode record/replay
// configuration instead of core.AllOpts.
type FleetScenario struct {
	Name    string
	Pairs   int
	Workers int
	Spares  int
	Kills   int
	Replay  bool
}

// FleetScenarios is the host-granularity half of the sweep matrix. The
// first two shapes re-protect every displaced pair: one onto a single
// spare, the other — the README's acceptance demo shape — loses two
// hosts at once and rolls the survivors onto two spares. The third
// re-runs the single-kill shape in record/replay mode, so host-kill
// failovers exercise log replay and the replay-divergence oracle.
func FleetScenarios() []FleetScenario {
	return []FleetScenario{
		{Name: "fleet-1kill", Pairs: 4, Workers: 4, Spares: 1, Kills: 1},
		{Name: "fleet-2kill", Pairs: 8, Workers: 4, Spares: 2, Kills: 2},
		{Name: "fleet-replay", Pairs: 4, Workers: 4, Spares: 1, Kills: 1, Replay: true},
	}
}

// RunFleetCampaign runs one verified fleet campaign for a scenario on an
// engine with the given lane count and window-drain workers (semantics
// as in chaos.FleetConfig.Shards and EngineWorkers).
func RunFleetCampaign(sc FleetScenario, seed int64, duration simtime.Duration, shards, workers int) chaos.Result {
	opts := core.AllOpts()
	if sc.Replay {
		opts = core.ReplayOpts()
	}
	return chaos.VerifyFleetSeed(chaos.FleetConfig{
		Seed:          seed,
		Opts:          opts,
		OptName:       sc.Name,
		Pairs:         sc.Pairs,
		Workers:       sc.Workers,
		Spares:        sc.Spares,
		Kills:         sc.Kills,
		Duration:      duration,
		Shards:        shards,
		EngineWorkers: workers,
	})
}
