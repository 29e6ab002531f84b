// fleet demonstrates the fleet control plane (DESIGN.md §9): many
// protected container pairs spread over a simulated host pool, placed
// primary/backup anti-affine on a ring, with spare hosts standing by.
// Two hosts lose power in the same virtual-time instant. The host-level
// failure detector — aggregating nothing but per-pair heartbeat
// evidence, and discounting witnesses that are themselves suspects —
// convicts exactly the two dead hosts. Every pair primaried there fails
// over concurrently; every pair backed there is fenced; rolling
// re-protection streams each displaced pair's state onto the spares
// under admission control, sharing each host's one replication NIC
// fairly with the healthy pairs' checkpoint traffic.
//
// The run doubles as the chaos fleet campaign, so all oracles are
// verified: output-commit on every pair at 1 ms sampling, no
// acknowledged write lost, convergence back to fully Protected with the
// exact expected failover/fence counts, drain-to-zero on every NIC
// after quiesce, and byte-identical traces across replays.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"os"
	"strings"

	"nilicon/internal/chaos"
	"nilicon/internal/core"
)

func main() {
	f := &chaos.Fleet{Pairs: 8, Hosts: 4, Spares: 2, Kills: 2}
	fmt.Printf("fleet: %d pairs over %d workers + %d spares, %d concurrent host kills\n\n",
		f.Pairs, f.Hosts, f.Spares, f.Kills)

	res := chaos.VerifySeed(chaos.Config{Seed: 1, Opts: core.AllOpts(), OptName: "all", Fleet: f})

	// The full trace is long; show the control-plane arc — schedule,
	// host deaths, failovers, fences, re-protections — then the verdicts.
	for _, line := range strings.Split(res.Trace, "\n") {
		interesting := strings.HasPrefix(line, "chaos-fleet") ||
			strings.HasPrefix(line, "sched") ||
			strings.HasPrefix(line, "verdict") ||
			strings.HasPrefix(line, "final") ||
			strings.HasPrefix(line, "counters")
		for _, ev := range []string{"kill-host", "host-dead", "failover-start", "fence", "recovered", "reprotect-start", "protected pair"} {
			if strings.Contains(line, ev) {
				interesting = true
			}
		}
		if interesting {
			fmt.Println(line)
		}
	}
	for _, v := range res.Verdicts {
		if v.Oracle == "determinism" {
			fmt.Printf("verdict determinism PASS: %s\n", v.Detail)
		}
	}
	if !res.Passed {
		fmt.Fprintln(os.Stderr, "fleet campaign FAILED")
		os.Exit(1)
	}
	fmt.Printf("\nall %d pairs protected again: %d failovers, every oracle green\n",
		f.Pairs, res.Failovers)
}
