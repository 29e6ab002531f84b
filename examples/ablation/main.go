// ablation walks Table I's optimization ladder: starting from the basic
// implementation (stock CRIU forked per epoch, 100 ms freeze sleep,
// firewall input blocking, smaps, no caching, pipe page transfer) and
// enabling each §V optimization cumulatively, printing the overhead on
// streamcluster after each step. It then runs the epoch-pipeline
// ablation, which goes one step beyond the paper: overlapping the state
// transfer with the next epoch's execution (PipelinedTransfer).
//
//	go run ./examples/ablation
package main

import (
	"fmt"

	"nilicon/internal/harness"
	"nilicon/internal/simtime"
)

func main() {
	fmt.Println("Table I ablation on streamcluster (paper: 1940% → 31%)")
	rows, tb := harness.RunTable1(harness.RunConfig{Measure: 2 * simtime.Second})
	fmt.Println(tb)
	first, last := rows[0], rows[len(rows)-1]
	fmt.Printf("total effect: %.0f%% → %.0f%% (%.0f× stop-time reduction: %v → %v)\n",
		first.Overhead*100, last.Overhead*100,
		float64(first.StopMean)/float64(last.StopMean), first.StopMean, last.StopMean)

	fmt.Println()
	fmt.Println("Epoch-pipeline ablation (beyond the paper's ladder)")
	prows, ptb := harness.RunPipelineAblation(harness.RunConfig{Measure: 2 * simtime.Second})
	fmt.Println(ptb)
	staging, piped := prows[1], prows[len(prows)-1]
	fmt.Printf("pipelined transfer: %.0f%% → %.0f%% overhead vs the staging buffer\n",
		staging.Overhead*100, piped.Overhead*100)
	delta := prows[len(prows)-2] // + Delta-compressed pages (§8)
	fmt.Printf("delta compression: %.0f KiB → %.0f KiB on the wire per epoch\n",
		staging.WireMean/1024, delta.WireMean/1024)
}
