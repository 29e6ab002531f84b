package chaos

import (
	"strings"
	"testing"

	"nilicon/internal/core"
)

func verdict(res Result, oracle string) (Verdict, bool) {
	for _, v := range res.Verdicts {
		if v.Oracle == oracle {
			return v, true
		}
	}
	return Verdict{}, false
}

// TestChainKillPrimaryPreservesAckedOutput is the f=1 acceptance claim
// on a 3-replica chain: the primary's host dies, the witness elects the
// most-caught-up replica, and every acknowledged write reads back.
func TestChainKillPrimaryPreservesAckedOutput(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		res := VerifySeed(Config{
			Seed: seed, Opts: core.AllOpts(), OptName: "all",
			Replicas: 3, Terminal: TerminalKill, Events: -1,
		})
		requirePassed(t, res)
		if res.Failovers != 1 {
			t.Fatalf("seed %d: failovers = %d, want 1", seed, res.Failovers)
		}
		v, ok := verdict(res, "acked-output")
		if !ok || strings.Contains(v.Detail, "skipped") {
			t.Fatalf("seed %d: acked-output oracle did not run: %+v", seed, v)
		}
	}
}

// TestChainTwoSimultaneousFailures is the f=2 acceptance claim: the
// primary's host AND the slot-0 replica's host die in the same virtual
// instant; with the strict chain-tail quorum every released epoch was
// committed on the surviving replica too, so no acknowledged write is
// lost.
func TestChainTwoSimultaneousFailures(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		res := VerifySeed(Config{
			Seed: seed, Opts: core.AllOpts(), OptName: "all",
			Replicas: 3, Terminal: TerminalDoubleKill, Events: -1,
		})
		requirePassed(t, res)
		if res.Failovers != 1 {
			t.Fatalf("seed %d: failovers = %d, want 1", seed, res.Failovers)
		}
		v, ok := verdict(res, "acked-output")
		if !ok || strings.Contains(v.Detail, "skipped") {
			t.Fatalf("seed %d: acked-output oracle did not run: %+v", seed, v)
		}
		if !strings.Contains(res.Trace, "replica-kill slot=0") {
			t.Fatalf("seed %d: trace missing the second kill", seed)
		}
		if !strings.Contains(res.Trace, "recovered slot=1") {
			t.Fatalf("seed %d: the survivor (slot 1) was not the one promoted", seed)
		}
	}
}

// TestChainWiderChains runs the f=1 claim at replicas=4: the chain
// machinery is not a 3-replica special case.
func TestChainWiderChains(t *testing.T) {
	res := VerifySeed(Config{
		Seed: 3, Opts: core.AllOpts(), OptName: "all",
		Replicas: 4, Terminal: TerminalDoubleKill, Events: -1,
	})
	requirePassed(t, res)
	if res.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", res.Failovers)
	}
}

// TestChainGeometrySweep runs the randomized chain trio — zone kills,
// witness partitions, asymmetric cuts — with a terminal primary kill,
// across several seeds. The 1 ms-sampled at-most-one-serving oracle
// must hold under every drawn geometry, and output-commit must hold in
// its quorum formulation.
func TestChainGeometrySweep(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 4
	}
	kinds := map[string]bool{}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		res := VerifySeed(Config{
			Seed: seed, Opts: core.AllOpts(), OptName: "all",
			Replicas: 3, Terminal: TerminalKill,
		})
		requirePassed(t, res)
		for _, k := range []string{"zone-kill", "witness-partition", "asym-cut"} {
			if strings.Contains(res.Trace, "kind="+k) {
				kinds[k] = true
			}
		}
	}
	if len(kinds) < 3 {
		t.Errorf("%d seeds drew only %v; schedule variety lost", seeds, kinds)
	}
}

// TestChainWitnessPartitionNobodyServes: isolating the witness costs
// availability, never safety — the primary self-fences when grants
// stop, no replica can be elected, and after the heal the chain
// resumes and still passes data verification.
func TestChainWitnessPartitionNobodyServes(t *testing.T) {
	res := VerifySeed(Config{
		Seed: 2, Opts: core.AllOpts(), OptName: "all",
		Replicas: 3, Terminal: TerminalNone, Events: 1, FaultKinds: []string{"witness-partition"},
	})
	requirePassed(t, res)
	if res.Failovers != 0 {
		t.Fatalf("witness partition caused a promotion (failovers=%d)", res.Failovers)
	}
	if !strings.Contains(res.Trace, "witness-partition for=") {
		t.Fatal("trace missing the witness-partition injection")
	}
}

// TestChainAsymCutRefused: a replica that loses its primary links bids
// for promotion, but the witness still hears the primary and refuses —
// the primary serves alone throughout.
func TestChainAsymCutRefused(t *testing.T) {
	res := VerifySeed(Config{
		Seed: 4, Opts: core.AllOpts(), OptName: "all",
		Replicas: 3, Terminal: TerminalNone, Events: 1, FaultKinds: []string{"asym-cut"},
	})
	requirePassed(t, res)
	if res.Failovers != 0 {
		t.Fatalf("asymmetric cut promoted a replica under a live witness (failovers=%d)", res.Failovers)
	}
	if !strings.Contains(res.Trace, "elections=0") {
		t.Fatal("witness concluded an election while the primary was reachable")
	}
}

// TestChainPreLeaseAsymCutDualServes is the chain's escape-hatch seed:
// the SAME asymmetric-cut geometry that the witness refuses above, run
// under PreLease (no witness, no lease), demonstrably dual-serves — the
// cut replica convicts the primary on staleness alone and self-promotes
// while the primary keeps serving. If this test ever fails because the
// verdict PASSES, the hole has been closed some other way and the
// witness's reason-to-exist needs re-documenting. The narrower
// multi-grantor hole (per-slot two-party leases without a witness) is
// shown at the core level by TestQuorumPreQuorumAsymmetricCutDualServes.
func TestChainPreLeaseAsymCutDualServes(t *testing.T) {
	res := Run(Config{
		Seed: 4, Opts: core.AllOpts(), OptName: "all",
		Replicas: 3, Terminal: TerminalNone, Events: 1, FaultKinds: []string{"asym-cut"},
		PreLease: true,
	})
	v, ok := verdict(res, "at-most-one-serving")
	if !ok {
		t.Fatal("no at-most-one-serving verdict")
	}
	if v.OK {
		t.Fatal("expected dual-serving without a witness; has the multi-grantor hole been closed another way?")
	}
	if res.Failovers == 0 {
		t.Fatal("the cut replica never self-promoted; the demo did not exercise the hole")
	}
}
