package harness

import (
	"nilicon/internal/chaos"
	"nilicon/internal/core"
)

// FleetScenarios is the host-granularity half of the sweep matrix: one
// campaign config per scenario, named by OptName. The first two shapes
// re-protect every displaced pair: one onto a single spare, the other —
// the README's acceptance demo shape — loses two hosts at once and
// rolls the survivors onto two spares. The third re-runs the
// single-kill shape in record/replay mode, so host-kill failovers
// exercise log replay and the replay-divergence oracle.
func FleetScenarios() []chaos.Config {
	return []chaos.Config{
		{OptName: "fleet-1kill", Opts: core.AllOpts(), Fleet: &chaos.Fleet{Pairs: 4, Hosts: 4, Spares: 1, Kills: 1}},
		{OptName: "fleet-2kill", Opts: core.AllOpts(), Fleet: &chaos.Fleet{Pairs: 8, Hosts: 4, Spares: 2, Kills: 2}},
		{OptName: "fleet-replay", Opts: core.ReplayOpts(), Fleet: &chaos.Fleet{Pairs: 4, Hosts: 4, Spares: 1, Kills: 1}},
	}
}
