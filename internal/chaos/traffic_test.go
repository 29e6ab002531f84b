package chaos

import (
	"strings"
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
)

func synthTrace(t *testing.T, profile string, seed int64, dur simtime.Duration) *traffic.Trace {
	t.Helper()
	cfg, err := traffic.Profile(profile, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Clients = 8
	cfg.Rate = 600
	cfg.Duration = dur
	cfg.SlowFrac = 0 // client-side queueing must not trip the fault-coincidence oracle
	return traffic.Synthesize(cfg)
}

// Trace lengths: a TerminalNone campaign wants the trace inside the
// 1.5 s fault window; a terminal-kill campaign wants it to outlast the
// window so the kill lands mid-run, with clients still arriving.
const (
	fitTrace  = 1500 * simtime.Millisecond
	longTrace = 3 * simtime.Second
)

// TestTrafficCleanRunMeetsSLO: no transient events, no terminal — the
// steady-state pipeline under an open-loop uniform trace must produce
// zero SLO violation windows.
func TestTrafficCleanRunMeetsSLO(t *testing.T) {
	res := VerifySeed(Config{
		Seed: 21, Opts: core.AllOpts(), OptName: "all",
		Terminal: TerminalNone, Events: -1,
		Traffic: synthTrace(t, "uniform", 21, fitTrace),
	})
	requirePassed(t, res)
	if res.SLO == nil {
		t.Fatal("no SLO report")
	}
	if res.SLO.Violations != 0 {
		t.Fatalf("clean run violated the SLO in %d windows (limiting=%s)",
			res.SLO.Violations, res.SLO.Limiting)
	}
	if res.SLO.Completions == 0 || res.SLO.Outstanding != 0 {
		t.Fatalf("completions=%d outstanding=%d", res.SLO.Completions, res.SLO.Outstanding)
	}
	if !strings.Contains(res.Trace, "slo windows=") || !strings.Contains(res.Trace, "slo-attribution limiting=") {
		t.Fatal("trace missing slo report lines")
	}
}

// TestTrafficFailoverViolationsCoincide: a mid-run hard kill must show
// up as SLO violation windows — and only inside the kill→recovery
// interval (± slack), which is exactly what the slo-windows oracle
// asserts. The limiting factor must name a pipeline mechanism, not
// client queueing.
func TestTrafficFailoverViolationsCoincide(t *testing.T) {
	res := VerifySeed(Config{
		Seed: 33, Opts: core.AllOpts(), OptName: "all",
		Terminal: TerminalKill, Events: -1,
		Traffic: synthTrace(t, "zipf", 33, longTrace),
	})
	requirePassed(t, res)
	if res.Failovers == 0 {
		t.Fatal("kill terminal produced no failover")
	}
	if res.SLO.Violations == 0 {
		t.Fatal("hard kill produced no SLO violation windows")
	}
	switch res.SLO.Limiting {
	case "fence", "replay-cpu", "checkpoint-stall", "transfer-backlog":
	default:
		t.Fatalf("limiting factor %q does not name a pipeline mechanism", res.SLO.Limiting)
	}
}

// TestTrafficReplayModeAttributesReplayCPU: in HyCoR mode the failover
// gap is dominated by log replay; the attribution must reflect that.
func TestTrafficReplayModeAttributesReplayCPU(t *testing.T) {
	res := VerifySeed(Config{
		Seed: 9, Opts: core.ReplayOpts(), OptName: "replay",
		Terminal: TerminalKill, Events: -1,
		Traffic: synthTrace(t, "uniform", 9, longTrace),
	})
	requirePassed(t, res)
	if res.SLO.Violations == 0 {
		t.Fatal("hard kill produced no SLO violation windows")
	}
	shares := res.SLO.Shares
	var replayShare float64
	for i, name := range []string{"checkpoint-stall", "transfer-backlog", "fence", "replay-cpu", "client-queueing"} {
		if name == "replay-cpu" {
			replayShare = shares[i]
		}
	}
	if replayShare == 0 {
		t.Fatalf("replay-mode failover attributed no replay-cpu share: %s", res.SLO.Limiting)
	}
}

// TestFleetTrafficSLO: the fleet campaign under trace replay — host
// kills must surface as fleet-wide SLO violation windows inside the
// kill→drain interval, with the read-back oracle still holding on
// every pair.
func TestFleetTrafficSLO(t *testing.T) {
	res := VerifySeed(Config{
		Seed: 4, Opts: core.AllOpts(), OptName: "all",
		Fleet:   &Fleet{Pairs: 4, Hosts: 4, Spares: 1, Kills: 1},
		Traffic: synthTrace(t, "uniform", 4, 2*simtime.Second),
	})
	requirePassed(t, res)
	if res.SLO == nil {
		t.Fatal("no SLO report")
	}
	if res.SLO.Violations == 0 {
		t.Fatal("host kill produced no fleet SLO violation windows")
	}
	if res.SLO.Limiting == "client-queueing" || res.SLO.Limiting == "none" {
		t.Fatalf("limiting = %q", res.SLO.Limiting)
	}
	if !strings.Contains(res.Trace, "slo windows=") {
		t.Fatal("fleet trace missing slo report line")
	}
}

// TestTrafficEngineParity: the whole point of judging on simtime — the
// campaign trace (slo lines included) is byte-identical across the
// default engine (Shards 0, taken as one lane), more lanes, and worker
// mode.
func TestTrafficEngineParity(t *testing.T) {
	base := Config{
		Seed: 17, Opts: core.AllOpts(), OptName: "all",
		Terminal: TerminalKill, Events: -1,
		Traffic: synthTrace(t, "burst", 17, longTrace),
	}
	ref := Run(base)
	for _, eng := range []struct {
		name            string
		shards, workers int
	}{{"shards1", 1, 0}, {"shards4", 4, 0}, {"shards4-workers4", 4, 4}} {
		cfg := base
		cfg.Traffic = synthTrace(t, "burst", 17, longTrace)
		cfg.Shards, cfg.Workers = eng.shards, eng.workers
		got := Run(cfg)
		if got.Trace != ref.Trace {
			t.Fatalf("%s: trace diverged from the default engine", eng.name)
		}
	}
}
