package chaos

import (
	"strings"
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
)

// TestReplayRecoversPostCheckpointWork is the PR's regression seed: the
// same kill campaign run with and without record/replay. Both must pass
// every oracle, but the replay run releases replies on log-segment
// commit — so strictly more writes are acknowledged by writer stop —
// and its failover replays the committed suffix instead of discarding
// everything after the last checkpoint.
func TestReplayRecoversPostCheckpointWork(t *testing.T) {
	// Seed 3's transient faults trip the failure detector mid-window, so
	// the failover happens while the writer is live and the committed log
	// suffix is non-empty.
	base := Config{
		Seed:     3,
		Duration: 800 * simtime.Millisecond,
		Terminal: TerminalKill,
	}
	pipe := base
	pipe.Opts = core.PipelinedOpts()
	pipe.OptName = "pipelined"
	rp := base
	rp.Opts = core.ReplayOpts()
	rp.OptName = "replay"

	pres := Run(pipe)
	rres := Run(rp)
	for _, res := range []Result{pres, rres} {
		if !res.Passed {
			t.Fatalf("%s campaign failed:\n%s", res.OptName, res.Trace)
		}
		if res.Failovers < 1 {
			t.Fatalf("%s campaign had no failover under TerminalKill", res.OptName)
		}
	}

	if !strings.Contains(rres.Trace, "verdict replay-divergence PASS") {
		t.Fatalf("replay-divergence verdict missing or failed:\n%s", rres.Trace)
	}
	sawReplay, sawSegments := false, false
	for _, ln := range strings.Split(rres.Trace, "\n") {
		if !strings.Contains(ln, "replay from=") {
			continue
		}
		sawReplay = true
		if !strings.Contains(ln, " segments=0 ") {
			sawSegments = true
		}
	}
	if !sawReplay {
		t.Fatalf("no replay trace events despite %d failovers:\n%s", rres.Failovers, rres.Trace)
	}
	if !sawSegments {
		t.Fatal("every failover replayed zero segments; post-checkpoint work was discarded")
	}

	// The visible-latency win: with identical fault schedules, the
	// log-commit gate acknowledges more of the same write stream before
	// the writer stops than the epoch-commit gate does.
	if rres.AckedWrites <= pres.AckedWrites {
		t.Fatalf("replay acked %d <= pipelined acked %d of %d/%d sent",
			rres.AckedWrites, pres.AckedWrites, rres.SentWrites, pres.SentWrites)
	}
}

// TestReplayLatencySweep pins the record/replay headline: replay's
// p99 response latency sits below even the p50 of the epoch-gated
// pipeline in fault-free steady state.
func TestReplayLatencySweep(t *testing.T) {
	dur := 500 * simtime.Millisecond
	pipe := RunLatency(LatencyConfig{Seed: 3, Opts: core.PipelinedOpts(), OptName: "pipelined", Duration: dur})
	rp := RunLatency(LatencyConfig{Seed: 3, Opts: core.ReplayOpts(), OptName: "replay", Duration: dur})
	if pipe.Acked == 0 || rp.Acked == 0 {
		t.Fatalf("idle probes: pipelined acked=%d replay acked=%d", pipe.Acked, rp.Acked)
	}
	if rp.P99 >= pipe.P50 {
		t.Fatalf("replay p99 %.3fms not below pipelined p50 %.3fms", rp.P99, pipe.P50)
	}
}
