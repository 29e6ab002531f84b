// chaos demonstrates the seeded fault-campaign engine: one fully traced
// campaign against the optimized configuration, the same campaign
// replayed to show the trace is byte-identical, and a small sweep across
// the option-set matrix.
//
// A campaign draws its whole failure schedule — link cuts, partitions,
// and a terminal phase (none / hard-kill / kill mid-transfer / failover
// → reprotect → second failover) — from one seed, drives a key-value
// workload through it, and checks the design's invariants: output-commit
// (nothing released before the backup commits), no acknowledged write
// lost across failover, convergent recovery, and drain-to-zero after
// quiesce. Everything runs in virtual time, so a failing seed is a
// replayable regression test.
//
//	go run ./examples/chaos
package main

import (
	"fmt"

	"nilicon/internal/chaos"
	"nilicon/internal/core"
	"nilicon/internal/harness"
)

func main() {
	fmt.Println("One campaign, fully traced (seed 3, all optimizations):")
	res := chaos.Run(chaos.Config{Seed: 3, Opts: core.AllOpts(), OptName: "all"})
	fmt.Print(res.Trace)
	fmt.Println()

	again := chaos.Run(chaos.Config{Seed: 3, Opts: core.AllOpts(), OptName: "all"})
	fmt.Printf("replay of seed 3 byte-identical: %v\n\n", res.Trace == again.Trace)

	fmt.Println("Sweep: 5 seeds × option-set matrix:")
	results, tb := harness.RunChaosSweep(5, 1, 0, harness.Jobs)
	fmt.Println(tb)
	failed := 0
	for _, r := range results {
		if !r.Passed {
			failed++
			fmt.Printf("FAILED: %s seed=%d\n", r.OptName, r.Seed)
		}
	}
	fmt.Printf("%d campaigns, %d failed\n", len(results), failed)
}
