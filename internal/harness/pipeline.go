package harness

import (
	"fmt"

	"nilicon/internal/core"
	"nilicon/internal/metrics"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

// PipelineRow is one transfer-mode measurement of the pipeline ablation.
type PipelineRow struct {
	Name     string
	Overhead float64 // relative execution-time increase on streamcluster
	StopMean simtime.Duration
	// Stage means (virtual time) for the transfer and the end-to-end
	// output-commit latency.
	TransferMean simtime.Duration
	CommitMean   simtime.Duration
	// CommitP99 is the tail of the end-to-end output-commit latency.
	CommitP99 simtime.Duration
	// WireMean is the mean bytes actually sent per steady-state epoch.
	WireMean float64
	// DeltaHit/DedupHit are the fractions of transferred pages shipped
	// as delta/zero frames and as dedup references (DESIGN.md §8).
	DeltaHit, DedupHit float64
}

// RunPipelineAblation measures how the epoch pipeline's transfer path
// affects streamcluster overhead: strict stop-and-copy (container frozen
// until the state reaches the backup), the paper's staging buffer
// (§V-D), the delta-compressed wire format on top of it (§8: zero
// elision, page dedup and XOR page deltas), and the overlapped
// pipelined transfer (CoW pages stream while the next epoch executes).
// Overhead must not increase down the rows, and the pipelined row must
// strictly beat the non-overlapped modes (its pause excludes the
// dirty-page copy); output release is gated on the backup's ack in every
// row. The rows run on the harness worker pool (Jobs).
func RunPipelineAblation(rc RunConfig) ([]PipelineRow, *metrics.Table) {
	rc.defaults()
	stock := RunBatch(workloads.Streamcluster, Stock, rc)

	stopCopy := core.AllOpts()
	stopCopy.StagingBuffer = false
	modes := []struct {
		name string
		opts core.OptSet
	}{
		{"Stop-and-copy (thaw waits for delivery)", stopCopy},
		{"Staging buffer (§V-D)", core.AllOpts()},
		{"+ Delta-compressed pages (zero + dedup + XOR)", core.DeltaOpts()},
		{"Pipelined transfer (CoW streaming)", core.PipelinedOpts()},
	}

	rows := make([]PipelineRow, len(modes))
	runIndexed(len(modes), Jobs,
		func(i int) {
			m := modes[i]
			mrc := rc
			opts := m.opts
			mrc.Opts = &opts
			res := RunBatch(workloads.Streamcluster, NiLiCon, mrc)
			rows[i] = PipelineRow{
				Name:         m.name,
				Overhead:     Overhead(stock, res),
				StopMean:     simtime.Duration(res.StopMean * float64(simtime.Second)),
				TransferMean: simtime.Duration(res.StageMeans[core.StageTransfer] * float64(simtime.Second)),
				CommitMean:   simtime.Duration(res.StageMeans[core.StageReleaseOutput] * float64(simtime.Second)),
				CommitP99:    simtime.Duration(res.CommitP99 * float64(simtime.Second)),
				WireMean:     res.WireMean,
				DeltaHit:     res.DeltaHit,
				DedupHit:     res.DedupHit,
			}
		},
		func(i int) { progressf("pipeline: %s", modes[i].name) })

	tb := metrics.NewTable("Pipeline ablation: epoch transfer path (streamcluster)",
		"Transfer mode", "Overhead", "Mean stop", "Mean transfer", "Mean commit", "p99 commit", "Wire/epoch", "Δ-hit", "Dedup")
	for _, r := range rows {
		tb.AddRow(r.Name,
			fmt.Sprintf("%.0f%%", r.Overhead*100),
			fmt.Sprintf("%.1fms", float64(r.StopMean)/1e6),
			fmt.Sprintf("%.1fms", float64(r.TransferMean)/1e6),
			fmt.Sprintf("%.1fms", float64(r.CommitMean)/1e6),
			fmt.Sprintf("%.1fms", float64(r.CommitP99)/1e6),
			fmt.Sprintf("%.0fKiB", r.WireMean/1024),
			fmt.Sprintf("%.0f%%", r.DeltaHit*100),
			fmt.Sprintf("%.0f%%", r.DedupHit*100))
	}
	return rows, tb
}
