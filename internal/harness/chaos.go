package harness

import (
	"fmt"
	"sort"
	"strings"

	"nilicon/internal/chaos"
	"nilicon/internal/core"
	"nilicon/internal/metrics"
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
)

// trafficSweepTrace synthesizes the sweep's trace for one seed: the
// workload profile rotates uniform → zipf → burst with the seed, slow
// clients are disabled (client-side queueing would trip the
// fault-coincidence oracle on its own), and the trace outlasts the
// fault window by a second so a drawn terminal kill lands mid-run.
func trafficSweepTrace(seed int64, fault simtime.Duration) *traffic.Trace {
	profiles := []string{"uniform", "zipf", "burst"}
	name := profiles[((seed%3)+3)%3]
	cfg, err := traffic.Profile(name, seed)
	if err != nil {
		panic("harness: " + err.Error())
	}
	cfg.Clients = 8
	cfg.Rate = 600
	cfg.Duration = fault + simtime.Second
	cfg.SlowFrac = 0
	return traffic.Synthesize(cfg)
}

// OptSets is the table of named option sets: niliconctl's -opts picks
// from it, and the chaos sweep runs every entry. It holds the
// unoptimized baseline, the serialized stop-and-copy graph with
// buffered input, the fully optimized set, the overlapped transfer, the
// delta-compressed wire format (whose campaigns force delta ↔
// full-resync transitions at every injected outage), and the HyCoR-mode
// record/replay configuration (whose failover campaigns replay the
// committed log suffix and check the replay-divergence oracle).
func OptSets() []core.LadderStep {
	stopcopy := core.AllOpts()
	stopcopy.StagingBuffer = false
	return []core.LadderStep{
		{Name: "basic", Opts: core.BasicOpts()},
		{Name: "stop-and-copy", Opts: stopcopy},
		{Name: "all", Opts: core.AllOpts()},
		{Name: "pipelined", Opts: core.PipelinedOpts()},
		{Name: "delta", Opts: core.DeltaOpts()},
		{Name: "replay", Opts: core.ReplayOpts()},
	}
}

// RunChaosSweep runs `seeds` chaos campaigns (seeds base..base+seeds-1)
// against every option set in the matrix, the trace-replay,
// asymmetric-fault and scripted split-brain lease campaigns, plus every
// fleet scenario (host-granularity fault schedules, FleetScenarios).
// Every campaign is executed twice so the determinism oracle (same seed
// ⇒ byte-identical trace and timeline) is always checked alongside the
// runtime oracles. It returns every campaign result plus a
// per-matrix-entry summary table, one row per OptName.
//
// Campaigns run concurrently on jobs workers, but each seeded DES run
// is single-threaded and results are aggregated in (matrix entry, seed)
// order, so the results slice, the progress lines and the summary table
// are byte-identical for any jobs value.
func RunChaosSweep(seeds int, base int64, duration simtime.Duration, jobs int, progress Progress) ([]chaos.Result, *metrics.Table) {
	var campaigns []chaos.Config
	each := func(cfg chaos.Config) {
		for s := int64(0); s < int64(seeds); s++ {
			c := cfg
			c.Seed = base + s
			campaigns = append(campaigns, c)
		}
	}
	for _, step := range OptSets() {
		each(chaos.Config{Opts: step.Opts, OptName: step.Name, Duration: duration})
	}
	// Trace-replay campaigns: a synthesized trace (profile rotating by
	// seed) replaces the fixed-interval writer trace and is judged
	// against the windowed SLO; the slo-windows oracle requires every
	// violation window to coincide with an injected disruption.
	each(chaos.Config{Opts: core.AllOpts(), OptName: "traffic", Duration: duration})
	for i := len(campaigns) - seeds; i < len(campaigns); i++ {
		campaigns[i].Traffic = trafficSweepTrace(campaigns[i].Seed, duration)
	}
	// Asymmetric-fault campaigns: schedules drawn only from the sustained
	// one-way cuts and seeded link flapping — the geometries the lease
	// protocol arbitrates; randomized complement to the scripted
	// split-brain scenarios below.
	each(chaos.Config{Opts: core.AllOpts(), OptName: "asym", Duration: duration,
		FaultKinds: []string{"oneway-pb", "oneway-bp", "flap"}})
	// Scripted split-brain scenarios: the partition that heals
	// mid-election under StrictSafety, the prolonged ack outage under the
	// Availability policy (unprotect → serve without acks → re-protect on
	// heal), and the partition-heal geometry again under record/replay —
	// the mid-partition promotion must replay the committed log suffix
	// and the healed old primary's held log releases must flush
	// safely.
	each(chaos.Config{Opts: core.AllOpts(), OptName: "splitbrain-partition",
		Scenario: chaos.ScenarioPartitionHeal, Degrade: core.StrictSafety})
	each(chaos.Config{Opts: core.AllOpts(), OptName: "splitbrain-ackout",
		Scenario: chaos.ScenarioAckOutage, Degrade: core.Availability})
	each(chaos.Config{Opts: core.ReplayOpts(), OptName: "splitbrain-replay",
		Scenario: chaos.ScenarioPartitionHeal, Degrade: core.StrictSafety})
	for _, sc := range FleetScenarios() {
		sc.Duration = duration
		each(sc)
	}
	results := make([]chaos.Result, len(campaigns))

	tb := metrics.NewTable("Chaos sweep: seeded fault campaigns × option sets and fleet scenarios",
		"Matrix", "Campaigns", "Passed", "Terminals", "Epochs", "Resyncs", "Drops", "Failovers",
		"SLOViol", "SLOp99.9", "Limiting")
	var passed, failovers int
	var epochs uint64
	var resyncs, drops int64
	terminals := map[string]int{}
	sloViol, sloWorst, sawSLO := 0, 0.0, false
	sloLimiting := map[string]int{}
	flush := func(name string) {
		var tnames []string
		for t, n := range terminals {
			tnames = append(tnames, fmt.Sprintf("%s:%d", t, n))
		}
		// Deterministic column ordering for the summary.
		sort.Strings(tnames)
		viol, worst, limiting := "-", "-", "-"
		if sawSLO {
			viol = fmt.Sprintf("%d", sloViol)
			worst = fmt.Sprintf("%.1fms", sloWorst)
			var lnames []string
			for l, n := range sloLimiting {
				lnames = append(lnames, fmt.Sprintf("%s:%d", l, n))
			}
			sort.Strings(lnames)
			limiting = strings.Join(lnames, " ")
		}
		tb.AddRow(name,
			fmt.Sprintf("%d", seeds),
			fmt.Sprintf("%d", passed),
			strings.Join(tnames, " "),
			fmt.Sprintf("%d", epochs),
			fmt.Sprintf("%d", resyncs),
			fmt.Sprintf("%d", drops),
			fmt.Sprintf("%d", failovers),
			viol, worst, limiting)
		passed, failovers, epochs, resyncs, drops = 0, 0, 0, 0, 0
		terminals = map[string]int{}
		sloViol, sloWorst, sawSLO = 0, 0, false
		sloLimiting = map[string]int{}
	}

	runIndexed(len(campaigns), jobs,
		func(i int) { results[i] = chaos.VerifySeed(campaigns[i]) },
		func(i int) {
			cmp, res := campaigns[i], results[i]
			terminals[res.Terminal]++
			epochs += res.Epochs
			resyncs += res.Resyncs
			drops += res.LinkDrops
			failovers += res.Failovers
			if res.SLO != nil {
				sawSLO = true
				sloViol += res.SLO.Violations
				if res.SLO.WorstP999 > sloWorst {
					sloWorst = res.SLO.WorstP999
				}
				sloLimiting[res.SLO.Limiting]++
			}
			if res.Passed {
				passed++
			} else {
				for _, v := range res.Verdicts {
					if !v.OK {
						progress.printf("chaos %s seed=%d FAIL %s: %s", cmp.OptName, cmp.Seed, v.Oracle, v.Detail)
					}
				}
			}
			progress.printf("chaos %s seed=%d terminal=%s passed=%v", cmp.OptName, cmp.Seed, res.Terminal, res.Passed)
			if (i+1)%seeds == 0 {
				flush(cmp.OptName)
			}
		})
	return results, tb
}
