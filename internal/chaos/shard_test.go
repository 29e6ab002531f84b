package chaos

import (
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
)

// The sharded engine's central guarantee (DESIGN.md §11, §13): for a
// fixed seed, the lane count AND the window-drain worker count are pure
// performance knobs — every (shards, workers) configuration must produce
// byte-identical event traces AND byte-identical epoch timelines. These
// tables run the real campaign entry points (the scripted split-brain
// partition-heal, the randomized single-pair schedules, and the fleet
// host-kill campaign) across the configuration grid and diff the bytes.

// parityGrid is the full engine-configuration matrix: every lane count
// crossed with ladder mode (workers=0) and every conservative-window
// worker count. The first entry — shards=1, ladder — is the reference
// all others are diffed against.
var parityGrid = func() [][2]int {
	grid := [][2]int{}
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{0, 1, 2, 4} {
			grid = append(grid, [2]int{shards, workers})
		}
	}
	return grid
}()

// assertParity runs fn at every (shards, workers) configuration and
// asserts the results are byte-identical to the shards=1/ladder
// reference (and that every run passes its own oracles — parity between
// two broken runs proves nothing).
func assertParity(t *testing.T, name string, fn func(shards, workers int) Result) {
	t.Helper()
	var ref Result
	for i, cfg := range parityGrid {
		shards, workers := cfg[0], cfg[1]
		res := fn(shards, workers)
		if !res.Passed {
			t.Fatalf("%s shards=%d workers=%d: campaign failed its oracles:\n%s", name, shards, workers, res.Trace)
		}
		if i == 0 {
			ref = res
			if ref.Trace == "" {
				t.Fatalf("%s: empty reference trace", name)
			}
			continue
		}
		if res.Trace != ref.Trace {
			t.Errorf("%s shards=%d workers=%d: trace diverged from the shards=1 ladder reference (%d vs %d bytes)",
				name, shards, workers, len(res.Trace), len(ref.Trace))
		}
		if res.TimelineCSV != ref.TimelineCSV {
			t.Errorf("%s shards=%d workers=%d: epoch timeline diverged from the shards=1 ladder reference (%d vs %d bytes)",
				name, shards, workers, len(res.TimelineCSV), len(ref.TimelineCSV))
		}
	}
}

func TestShardParitySplitBrain(t *testing.T) {
	cases := []struct {
		scenario string
		degrade  core.DegradePolicy
		seeds    []int64
	}{
		{ScenarioPartitionHeal, core.StrictSafety, []int64{1, 2, 3}},
		{ScenarioPartitionHeal, core.Availability, []int64{1, 2}},
		{ScenarioAckOutage, core.StrictSafety, []int64{1}},
		{ScenarioAckOutage, core.Availability, []int64{1}},
	}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			name := tc.scenario + "/" + tc.degrade.String()
			assertParity(t, name, func(shards, workers int) Result {
				return Run(Config{
					Seed: seed, Opts: core.AllOpts(), OptName: "all",
					Scenario: tc.scenario, Degrade: tc.degrade,
					Shards: shards, Workers: workers,
				})
			})
		}
	}
}

func TestShardParityRandomizedSchedules(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		for _, terminal := range []string{TerminalKill, TerminalNone} {
			assertParity(t, "randomized/"+terminal, func(shards, workers int) Result {
				return Run(Config{
					Seed:     seed,
					Opts:     core.AllOpts(),
					OptName:  "all",
					Terminal: terminal,
					Duration: 900 * simtime.Millisecond,
					Shards:   shards,
					Workers:  workers,
				})
			})
		}
	}
}

func TestShardParityFleetHostKill(t *testing.T) {
	for _, seed := range []int64{1, 2, 5} {
		assertParity(t, "fleet/host-kill", func(shards, workers int) Result {
			return Run(Config{
				Seed:     seed,
				Opts:     core.AllOpts(),
				OptName:  "all",
				Duration: 500 * simtime.Millisecond,
				Fleet:    &Fleet{},
				Shards:   shards,
				Workers:  workers,
			})
		})
	}
}

// TestShardParityReplay extends the parity guarantee to HyCoR-mode
// record/replay campaigns: the recorder's segment seals, the log flow's
// transfer scheduling, the failover-time replay and its divergence
// verdict must all be lane-count invariant. The kill terminals force a
// real failover, so the replay driver itself runs inside the diffed
// trace; the replay-divergence verdict is part of the trace bytes, so
// identical traces imply identical verdicts at every lane count.
func TestShardParityReplay(t *testing.T) {
	for _, seed := range []int64{1, 3, 9} {
		for _, terminal := range []string{TerminalKill, TerminalNone} {
			assertParity(t, "replay/"+terminal, func(shards, workers int) Result {
				return Run(Config{
					Seed:     seed,
					Opts:     core.ReplayOpts(),
					OptName:  "replay",
					Terminal: terminal,
					Duration: 900 * simtime.Millisecond,
					Shards:   shards,
					Workers:  workers,
				})
			})
		}
	}
	// The scripted partition-heal geometry under replay: a mid-partition
	// promotion replays the committed suffix while the fenced old
	// primary parks log-ack releases.
	assertParity(t, "replay/splitbrain", func(shards, workers int) Result {
		return Run(Config{
			Seed: 2, Opts: core.ReplayOpts(), OptName: "replay",
			Scenario: ScenarioPartitionHeal, Degrade: core.StrictSafety,
			Shards: shards, Workers: workers,
		})
	})
	// Fleet host-kill under replay: several pairs fail over at once and
	// each must replay on its own host's lane.
	assertParity(t, "replay/fleet", func(shards, workers int) Result {
		return Run(Config{
			Seed:     4,
			Opts:     core.ReplayOpts(),
			OptName:  "fleet-replay",
			Duration: 500 * simtime.Millisecond,
			Fleet:    &Fleet{},
			Shards:   shards,
			Workers:  workers,
		})
	})
}

// TestShardParityChain extends the lane-count-invariance guarantee to
// f+1 chain campaigns: per-slot fan-out transfers, the witness's
// cross-shard candidacy/promote links, quorum-gated release and the
// f=2 double kill must all produce byte-identical traces at every
// (shards, workers) configuration. On the sharded engine each backup
// host gets its own shard, so a 3-replica chain genuinely exercises
// three-way cross-shard traffic.
func TestShardParityChain(t *testing.T) {
	for _, seed := range []int64{1, 2, 5} {
		assertParity(t, "chain/kill", func(shards, workers int) Result {
			return Run(Config{
				Seed: seed, Opts: core.AllOpts(), OptName: "all",
				Replicas: 3, Terminal: TerminalKill,
				Shards: shards, Workers: workers,
			})
		})
	}
	assertParity(t, "chain/f2", func(shards, workers int) Result {
		return Run(Config{
			Seed: 3, Opts: core.AllOpts(), OptName: "all",
			Replicas: 3, Terminal: TerminalDoubleKill, Events: -1,
			Shards: shards, Workers: workers,
		})
	})
	assertParity(t, "chain/geometries", func(shards, workers int) Result {
		return Run(Config{
			Seed: 2, Opts: core.AllOpts(), OptName: "all",
			Replicas: 3, Terminal: TerminalNone, Events: 2,
			FaultKinds: []string{"witness-partition", "asym-cut"},
			Shards:     shards, Workers: workers,
		})
	})
}
