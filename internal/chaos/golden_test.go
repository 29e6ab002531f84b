package chaos

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current campaign traces")

// goldenCases is one campaign of every kind the engine runs. Each
// golden file holds the campaign's full trace plus the SHA-256 of its
// epoch timeline CSV, so any change to what a campaign simulates shows
// up as a reviewable diff of testdata/golden.
func goldenCases(t *testing.T) []struct {
	name string
	run  func() Result
} {
	return []struct {
		name string
		run  func() Result
	}{
		{"pair-all-kill", func() Result {
			return Run(Config{Seed: 7, Opts: core.AllOpts(), OptName: "all", Terminal: TerminalKill})
		}},
		{"pair-all-reprotect", func() Result {
			return Run(Config{Seed: 5, Opts: core.AllOpts(), OptName: "all", Terminal: TerminalReprotect})
		}},
		{"pair-all-none", func() Result {
			return Run(Config{Seed: 13, Opts: core.AllOpts(), OptName: "all", Terminal: TerminalNone})
		}},
		{"pair-pipelined-midtransfer", func() Result {
			return Run(Config{Seed: 11, Opts: core.PipelinedOpts(), OptName: "pipelined", Terminal: TerminalKillMidTransfer})
		}},
		{"pair-basic-drawn", func() Result {
			return Run(Config{Seed: 2, Opts: core.BasicOpts(), OptName: "basic"})
		}},
		{"pair-replay-kill", func() Result {
			return Run(Config{Seed: 3, Opts: core.ReplayOpts(), OptName: "replay",
				Duration: 800 * simtime.Millisecond, Terminal: TerminalKill})
		}},
		{"asym", func() Result {
			return Run(Config{Seed: 21, Opts: core.AllOpts(), OptName: "asym",
				FaultKinds: []string{"oneway-pb", "oneway-bp", "flap"}})
		}},
		{"traffic-kill", func() Result {
			return Run(Config{Seed: 33, Opts: core.AllOpts(), OptName: "all",
				Terminal: TerminalKill, Events: -1, Traffic: synthTrace(t, "zipf", 33, longTrace)})
		}},
		{"traffic-replay", func() Result {
			return Run(Config{Seed: 9, Opts: core.ReplayOpts(), OptName: "replay",
				Terminal: TerminalKill, Events: -1, Traffic: synthTrace(t, "uniform", 9, longTrace)})
		}},
		{"splitbrain-partition-strict", func() Result {
			return Run(Config{Seed: 21, Opts: core.AllOpts(), OptName: "all", Scenario: ScenarioPartitionHeal, Degrade: core.StrictSafety})
		}},
		{"splitbrain-partition-replay", func() Result {
			return Run(Config{Seed: 2, Opts: core.ReplayOpts(), OptName: "replay", Scenario: ScenarioPartitionHeal, Degrade: core.StrictSafety})
		}},
		{"splitbrain-partition-prelease", func() Result {
			return Run(Config{Seed: 21, Opts: core.AllOpts(), OptName: "all", Scenario: ScenarioPartitionHeal, PreLease: true})
		}},
		{"splitbrain-ackout-availability", func() Result {
			return Run(Config{Seed: 33, Opts: core.AllOpts(), OptName: "all", Scenario: ScenarioAckOutage, Degrade: core.Availability})
		}},
		{"splitbrain-ackout-strict", func() Result {
			return Run(Config{Seed: 33, Opts: core.AllOpts(), OptName: "all", Scenario: ScenarioAckOutage, Degrade: core.StrictSafety})
		}},
		{"chain-replicas3-seed2", func() Result {
			return Run(Config{Seed: 2, Opts: core.AllOpts(), OptName: "all", Replicas: 3, Terminal: TerminalKill})
		}},
		{"chain-replicas4-kills2", func() Result {
			return Run(Config{Seed: 3, Opts: core.AllOpts(), OptName: "all", Replicas: 4, Terminal: TerminalDoubleKill, Events: -1})
		}},
		{"chain-prelease-asymcut", func() Result {
			return Run(Config{Seed: 4, Opts: core.AllOpts(), OptName: "all", Replicas: 3, Terminal: TerminalNone,
				Events: 1, FaultKinds: []string{"asym-cut"}, PreLease: true})
		}},
		{"chain-witness-partition", func() Result {
			return Run(Config{Seed: 2, Opts: core.AllOpts(), OptName: "all", Replicas: 3, Terminal: TerminalNone,
				Events: 1, FaultKinds: []string{"witness-partition"}})
		}},
		{"fleet-smoke", func() Result {
			return Run(Config{Seed: 1, Opts: core.AllOpts(), OptName: "all", Duration: 600 * simtime.Millisecond,
				Fleet: &Fleet{Pairs: 4, Hosts: 4, Spares: 1, Kills: 1}})
		}},
		{"fleet-zonekill-replicas3", func() Result {
			return Run(Config{Seed: 1, Opts: core.AllOpts(), OptName: "all", Duration: 600 * simtime.Millisecond,
				Replicas: 3, Fleet: &Fleet{Pairs: 4, Hosts: 4, Spares: 3, Kills: 1, Zones: 3}})
		}},
		{"fleet-replay", func() Result {
			return Run(Config{Seed: 4, Opts: core.ReplayOpts(), OptName: "fleet-replay", Duration: 500 * simtime.Millisecond,
				Fleet: &Fleet{Pairs: 4, Hosts: 4, Spares: 1, Kills: 1}})
		}},
		{"fleet-traffic", func() Result {
			return Run(Config{Seed: 4, Opts: core.AllOpts(), OptName: "all",
				Fleet: &Fleet{Pairs: 4, Hosts: 4, Spares: 1, Kills: 1}, Traffic: synthTrace(t, "uniform", 4, 2*simtime.Second)})
		}},
	}
}

// goldenText renders a result as its golden file: the trace, then the
// timeline CSV's digest.
func goldenText(res Result) string {
	return fmt.Sprintf("%stimeline-csv sha256=%x\n", res.Trace, sha256.Sum256([]byte(res.TimelineCSV)))
}

// TestGoldenCampaignTraces compares every campaign kind against its
// committed trace. Regenerate with `go test ./internal/chaos/ -run
// Golden -update` and review the diff: a refactor of the campaign
// engine must leave every timestamp, event and verdict in place.
func TestGoldenCampaignTraces(t *testing.T) {
	for _, tc := range goldenCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := goldenText(tc.run())
			path := filepath.Join("testdata", "golden", tc.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s: trace differs from %s (%d vs %d bytes); rerun with -update and review the diff",
					tc.name, path, len(got), len(want))
			}
		})
	}
}
