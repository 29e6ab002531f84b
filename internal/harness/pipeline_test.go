package harness

import (
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
)

func TestPipelineAblationOverheadDrops(t *testing.T) {
	rc := RunConfig{Measure: 2 * simtime.Second}
	rows, tb := RunPipelineAblation(rc)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if tb == nil || tb.String() == "" {
		t.Fatal("empty table")
	}
	stopCopy, staging, delta, piped := rows[0], rows[1], rows[2], rows[3]
	// Down the rows, overhead must not increase; the pipelined transfer
	// must strictly beat both non-overlapped modes (its pause excludes
	// the dirty-page copy).
	if staging.Overhead > stopCopy.Overhead*1.02 {
		t.Fatalf("staging buffer raised overhead: %.1f%% → %.1f%%",
			stopCopy.Overhead*100, staging.Overhead*100)
	}
	if piped.Overhead >= staging.Overhead || piped.Overhead >= stopCopy.Overhead {
		t.Fatalf("pipelined transfer did not strictly cut overhead: stop-and-copy=%.1f%% staging=%.1f%% pipelined=%.1f%%",
			stopCopy.Overhead*100, staging.Overhead*100, piped.Overhead*100)
	}
	if piped.StopMean >= staging.StopMean {
		t.Fatalf("pipelined stop %.2fms not below staging %.2fms",
			float64(piped.StopMean)/1e6, float64(staging.StopMean)/1e6)
	}
	// §8 acceptance: with DeltaPages the bytes on the wire per epoch
	// drop by at least 40% against the AllOpts staging row on the
	// memory-heavy workload, and the commit tail improves.
	if staging.WireMean <= 0 || delta.WireMean <= 0 {
		t.Fatalf("wire means missing: staging=%.0f delta=%.0f", staging.WireMean, delta.WireMean)
	}
	if delta.WireMean > 0.6*staging.WireMean {
		t.Fatalf("delta wire bytes %.0f not >=40%% below staging %.0f (%.0f%%)",
			delta.WireMean, staging.WireMean, 100*(1-delta.WireMean/staging.WireMean))
	}
	if delta.CommitP99 >= staging.CommitP99 {
		t.Fatalf("delta p99 commit %.2fms not below staging %.2fms",
			float64(delta.CommitP99)/1e6, float64(staging.CommitP99)/1e6)
	}
	// Dedup references are tried before XOR deltas, so the row may ship
	// everything as references; its combined hit rate must be real.
	if delta.DeltaHit+delta.DedupHit <= 0 {
		t.Fatalf("delta row reports no compressed frames (delta=%v dedup=%v)", delta.DeltaHit, delta.DedupHit)
	}
	for _, r := range rows {
		if r.TransferMean <= 0 || r.CommitMean <= 0 {
			t.Fatalf("%s: stage means missing: transfer=%v commit=%v", r.Name, r.TransferMean, r.CommitMean)
		}
		// Output release always waits for the ack: commit latency covers
		// at least the transfer.
		if r.CommitMean < r.TransferMean {
			t.Fatalf("%s: commit %.2fms below transfer %.2fms", r.Name,
				float64(r.CommitMean)/1e6, float64(r.TransferMean)/1e6)
		}
	}
}

func TestRunResultCarriesStageMeans(t *testing.T) {
	opts := core.PipelinedOpts()
	rc := RunConfig{Measure: simtime.Second, Opts: &opts}
	res, err := Run("redis", NiLiCon, rc)
	if err != nil {
		t.Fatal(err)
	}
	for s := core.Stage(0); s < core.NumStages; s++ {
		if s == core.StageThaw {
			continue // zero under overlapped transfer
		}
		if res.StageMeans[s] <= 0 {
			t.Fatalf("stage %v mean = %v, want >0", s, res.StageMeans[s])
		}
	}
	if res.StageMeans[core.StageThaw] != 0 {
		t.Fatalf("Thaw mean = %v under overlapped transfer, want 0", res.StageMeans[core.StageThaw])
	}
}

func TestValidationPassesPipelined(t *testing.T) {
	results, _ := RunValidationOpts([]string{"netstress", "redis", "streamcluster"}, 2, 6*simtime.Second, 77, core.PipelinedOpts())
	for _, r := range results {
		if !r.Passed {
			t.Fatalf("pipelined validation failed: %+v", r)
		}
	}
}

func TestTimelineHasStageColumns(t *testing.T) {
	opts := core.PipelinedOpts()
	csv, err := RunTimeline("redis", RunConfig{Measure: simtime.Second, Opts: &opts})
	if err != nil {
		t.Fatal(err)
	}
	header := csv[:len("epoch,at_ms,stop_us,freeze_us,memcopy_us,sockcoll_us,state_bytes,dirty_pages,transfer_us,ack_us,commit_us")]
	if header != "epoch,at_ms,stop_us,freeze_us,memcopy_us,sockcoll_us,state_bytes,dirty_pages,transfer_us,ack_us,commit_us" {
		t.Fatalf("timeline header = %q", header)
	}
}
