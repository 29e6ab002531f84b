package chaos

import (
	"strings"
	"testing"

	"nilicon/internal/core"
)

// TestSplitBrainPartitionHeal is the acceptance scenario for the lease
// protocol: a full partition outlives the lease term and the promotion
// barrier, both replicas run convinced of their role, the partition
// heals mid-election — and at every sampled instant at most one replica
// served. Both degradation policies must pass (the supersede notice
// cancels Availability's unprotect timer), and the supersede verdict
// pins the post-heal end state: old primary fenced then superseded,
// promoted backup serving.
func TestSplitBrainPartitionHeal(t *testing.T) {
	for _, pol := range []core.DegradePolicy{core.StrictSafety, core.Availability} {
		res := VerifySeed(Config{
			Opts: core.AllOpts(), OptName: "all",
			Seed:     21,
			Scenario: ScenarioPartitionHeal,
			Degrade:  pol,
		})
		if !res.Passed {
			t.Fatalf("degrade=%s failed:\n%s", pol, res.Trace)
		}
		if res.Failovers != 1 {
			t.Fatalf("degrade=%s failovers = %d, want exactly 1:\n%s", pol, res.Failovers, res.Trace)
		}
		if !strings.Contains(res.Trace, "verdict supersede PASS") {
			t.Fatalf("degrade=%s missing supersede verdict:\n%s", pol, res.Trace)
		}
	}
}

// TestSplitBrainRegressionPreLease demonstrates why the lease exists:
// the same partition-heal seed, with the lease disabled, reproduces the
// pre-lease detector and dual-serves — the staleness-convicted backup
// promotes while the old primary is still authorized to release. The
// scripted schedule is a pure function of the seed (independent of the
// lease), so the comparison is exact: one configuration flag separates
// a passing campaign from a split brain.
func TestSplitBrainRegressionPreLease(t *testing.T) {
	sb := Config{Seed: 21, Opts: core.AllOpts(), OptName: "all", Scenario: ScenarioPartitionHeal}

	with := Run(sb)
	if v := findVerdict(t, with, "at-most-one-serving"); !v.OK {
		t.Fatalf("lease on: at-most-one-serving failed: %s\n%s", v.Detail, with.Trace)
	}

	sb.PreLease = true
	without := Run(sb)
	v := findVerdict(t, without, "at-most-one-serving")
	if v.OK {
		t.Fatalf("pre-lease detector did not dual-serve — regression demo lost its teeth:\n%s", without.Trace)
	}
	if !strings.Contains(v.Detail, "dual-serving") {
		t.Fatalf("unexpected violation detail: %s", v.Detail)
	}
	if without.Passed {
		t.Fatal("pre-lease campaign passed overall despite dual-serving")
	}
}

// TestSplitBrainAckOutageStrict: a sustained backup→primary cut under
// StrictSafety. The backup hears every heartbeat so it must never
// promote; the primary self-fences when its lease lapses, buffers
// output for the whole outage, and resumes (re-granted lease, parked
// output flushed) after the heal. No failover, no data loss, pipeline
// drains to zero.
func TestSplitBrainAckOutageStrict(t *testing.T) {
	res := VerifySeed(Config{
		Opts: core.AllOpts(), OptName: "all",
		Seed:     33,
		Scenario: ScenarioAckOutage,
		Degrade:  core.StrictSafety,
	})
	if !res.Passed {
		t.Fatalf("failed:\n%s", res.Trace)
	}
	if res.Failovers != 0 {
		t.Fatalf("backup promoted through fresh heartbeats: failovers = %d\n%s", res.Failovers, res.Trace)
	}
	if !strings.Contains(res.Trace, "verdict degrade-policy PASS: strict") {
		t.Fatalf("missing strict degrade-policy verdict:\n%s", res.Trace)
	}
}

// TestSplitBrainAckOutageAvailability: the same outage under the
// Availability policy. The primary declares the pair unprotected after
// the fixed 1 s unprotected-after delay and resumes releasing without
// acks; once the link heals the campaign re-protects the pair in place
// with a full resync, and the new backup must commit within the
// convergence bound.
func TestSplitBrainAckOutageAvailability(t *testing.T) {
	res := VerifySeed(Config{
		Opts: core.AllOpts(), OptName: "all",
		Seed:     33,
		Scenario: ScenarioAckOutage,
		Degrade:  core.Availability,
	})
	if !res.Passed {
		t.Fatalf("failed:\n%s", res.Trace)
	}
	if res.Failovers != 0 {
		t.Fatalf("backup promoted through fresh heartbeats: failovers = %d\n%s", res.Failovers, res.Trace)
	}
	if !strings.Contains(res.Trace, "verdict degrade-policy PASS: availability") {
		t.Fatalf("missing availability degrade-policy verdict:\n%s", res.Trace)
	}
	if !strings.Contains(res.Trace, "event reprotected-unprotected") {
		t.Fatalf("unprotected pair was never re-protected:\n%s", res.Trace)
	}
	if !strings.Contains(res.Trace, "verdict convergence PASS") {
		t.Fatalf("re-protection resync did not converge:\n%s", res.Trace)
	}
}

// TestSplitBrainSeedSweep varies the partition length (seeded, 400–700
// ms) across both scenarios and policies.
func TestSplitBrainSeedSweep(t *testing.T) {
	seeds := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, scenario := range []string{ScenarioPartitionHeal, ScenarioAckOutage} {
		for _, pol := range []core.DegradePolicy{core.StrictSafety, core.Availability} {
			for _, seed := range seeds {
				res := Run(Config{Seed: seed, Opts: core.AllOpts(), OptName: "all", Scenario: scenario, Degrade: pol})
				if !res.Passed {
					t.Fatalf("scenario=%s degrade=%s seed=%d failed:\n%s", scenario, pol, seed, res.Trace)
				}
			}
		}
	}
}

func findVerdict(t *testing.T, res Result, oracle string) Verdict {
	t.Helper()
	for _, v := range res.Verdicts {
		if v.Oracle == oracle {
			return v
		}
	}
	t.Fatalf("no %q verdict in result", oracle)
	return Verdict{}
}
