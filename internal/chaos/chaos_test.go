package chaos

import (
	"regexp"
	"strings"
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
)

func optSets() []struct {
	name string
	opts core.OptSet
} {
	// stop-and-copy keeps the container frozen until its transfer ends
	// while buffering input, so the data-path oracle runs for that side
	// of the pipeline's fork too; plain basic drops input at the firewall and
	// gets the acked-output oracle skipped.
	stopcopy := core.AllOpts()
	stopcopy.StagingBuffer = false
	return []struct {
		name string
		opts core.OptSet
	}{
		{"basic", core.BasicOpts()},
		{"stop-and-copy", stopcopy},
		{"pipelined", core.PipelinedOpts()},
		{"all", core.AllOpts()},
	}
}

func verdict(res Result, oracle string) (Verdict, bool) {
	for _, v := range res.Verdicts {
		if v.Oracle == oracle {
			return v, true
		}
	}
	return Verdict{}, false
}

func requirePassed(t *testing.T, res Result) {
	t.Helper()
	if res.Passed {
		return
	}
	for _, v := range res.Verdicts {
		if !v.OK {
			t.Errorf("oracle %s: %s", v.Oracle, v.Detail)
		}
	}
	t.Fatalf("%s: terminal=%s failed (trace %d bytes)",
		header(res), res.Terminal, len(res.Trace))
}

// header is the first line of the campaign's trace: its seed, option
// set and shape.
func header(res Result) string {
	h, _, _ := strings.Cut(res.Trace, "\n")
	return h
}

// TestChaosSeedSweep runs randomized campaigns across every option set.
// Each seed draws its own fault schedule and terminal phase; every
// campaign is run twice so the determinism oracle is always checked.
// ~7 seeds per option set under -short, 20 otherwise — the full sweep
// is the acceptance bar from the issue.
func TestChaosSeedSweep(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 7
	}
	for _, os := range optSets() {
		os := os
		t.Run(os.name, func(t *testing.T) {
			t.Parallel()
			terminals := map[string]int{}
			for seed := int64(1); seed <= int64(seeds); seed++ {
				res := VerifySeed(Config{Seed: seed, Opts: os.opts, OptName: os.name})
				terminals[res.Terminal]++
				requirePassed(t, res)
				if res.Epochs == 0 {
					t.Fatalf("seed %d: no epochs ran", seed)
				}
				// AckedWrites can legitimately be 0 at writer-stop under
				// the unoptimized configuration (replies lag its long
				// epochs); the acked-output oracle verifies them later.
				if res.SentWrites == 0 {
					t.Fatalf("seed %d: workload idle (sent=0)", seed)
				}
			}
			if !testing.Short() && len(terminals) < 3 {
				t.Errorf("20 seeds explored only terminals %v; schedule drawing lost variety", terminals)
			}
		})
	}
}

// TestChaosDeterminism pins the reproducibility oracle directly: two
// independent campaigns from one seed must produce byte-identical
// traces, and a different seed must not.
func TestChaosDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Opts: core.AllOpts(), OptName: "all"}
	a, b := Run(cfg), Run(cfg)
	if a.Trace != b.Trace {
		t.Fatal("same seed produced different traces")
	}
	if a.Trace == "" || !strings.HasPrefix(a.Trace, "chaos seed=42") {
		t.Fatalf("trace header malformed: %.80q", a.Trace)
	}
	other := Run(Config{Seed: 43, Opts: core.AllOpts(), OptName: "all"})
	if other.Trace == a.Trace {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestChaosTerminalKill forces the hard-kill terminal: the primary dies
// after the fault window and the campaign must observe convergent
// recovery with no acknowledged write lost.
func TestChaosTerminalKill(t *testing.T) {
	res := VerifySeed(Config{Seed: 7, Opts: core.AllOpts(), OptName: "all", Terminal: TerminalKill})
	requirePassed(t, res)
	if res.Failovers == 0 {
		t.Fatal("kill terminal produced no failover")
	}
}

// TestChaosTerminalKillMidTransfer kills the primary while checkpoint
// bytes are in flight on the replication link — the half-streamed epoch
// must be discarded, not recovered to. The kill must find the transfer
// scheduler sending; a kill on an idle link would pass every oracle
// without testing the discard.
func TestChaosTerminalKillMidTransfer(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 11, Opts: core.PipelinedOpts(), OptName: "pipelined", Terminal: TerminalKillMidTransfer},
		{Seed: 3, Opts: core.ReplayOpts(), OptName: "replay", Duration: 800 * simtime.Millisecond, Terminal: TerminalKillMidTransfer},
	} {
		res := VerifySeed(cfg)
		requirePassed(t, res)
		if res.Failovers == 0 {
			t.Fatalf("%s seed %d: mid-transfer kill produced no failover", cfg.OptName, cfg.Seed)
		}
		if !midTransfer.MatchString(res.Trace) {
			t.Fatalf("%s seed %d: the kill found nothing sending:\n%s", cfg.OptName, cfg.Seed, res.Trace)
		}
	}
}

var midTransfer = regexp.MustCompile(`event mid-transfer sending=[1-9]`)

// TestChaosTerminalReprotect drives the full failover → reprotect →
// second-failover cycle under a randomized fault schedule.
func TestChaosTerminalReprotect(t *testing.T) {
	res := VerifySeed(Config{Seed: 5, Opts: core.AllOpts(), OptName: "all", Terminal: TerminalReprotect})
	requirePassed(t, res)
	if res.Failovers < 2 {
		t.Fatalf("reprotect cycle saw %d failovers, want 2", res.Failovers)
	}
}

// TestChaosTerminalNoneDrains forces the quiet terminal: all faults
// heal, the pipeline quiesces, and the drain-to-zero oracle must see no
// retained in-flight epochs, flows, or queued bytes.
func TestChaosTerminalNoneDrains(t *testing.T) {
	res := VerifySeed(Config{Seed: 13, Opts: core.AllOpts(), OptName: "all", Terminal: TerminalNone})
	requirePassed(t, res)
	if res.Failovers == 0 && !strings.Contains(res.Trace, "drained inflight=0") {
		t.Fatalf("no drain event in trace:\n%s", res.Trace)
	}
}

// TestChaosDenseSchedule packs many transient faults into a short
// window; back-to-back replication cuts may legitimately trip the
// failure detector, and the engine must adapt (spurious failover is a
// valid outcome, lost acknowledged output is not).
func TestChaosDenseSchedule(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		res := VerifySeed(Config{Seed: seed, Opts: core.AllOpts(), OptName: "all", Events: 6})
		requirePassed(t, res)
	}
}

// TestChaosDeterminismOracleFiresOnTimeline shows the determinism
// oracle firing: two runs whose traces match but whose epoch timelines
// differ must fail it, for every campaign kind that goes through the
// one run-twice helper.
func TestChaosDeterminismOracleFiresOnTimeline(t *testing.T) {
	a := Run(Config{Seed: 42, Opts: core.AllOpts(), OptName: "all", Terminal: TerminalNone})
	requirePassed(t, a)
	if v := findVerdict(t, withDeterminism(a, a), "determinism"); !v.OK {
		t.Fatalf("identical runs failed the determinism oracle: %s", v.Detail)
	}
	b := a
	b.TimelineCSV += "0,0,0\n"
	res := withDeterminism(a, b)
	v := findVerdict(t, res, "determinism")
	if v.OK || res.Passed {
		t.Fatal("runs differing only in TimelineCSV passed the determinism oracle")
	}
	if !strings.Contains(v.Detail, "timeline mismatch") {
		t.Fatalf("determinism detail = %q, want a timeline mismatch", v.Detail)
	}
}
