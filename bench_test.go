// Package nilicon's top-level benchmarks regenerate the paper's tables
// and figures (DESIGN.md §3). Each benchmark runs the corresponding
// harness experiment once per iteration and reports the headline metric
// via b.ReportMetric, so `go test -bench=.` doubles as the experiment
// runner. Measurement windows are kept short; use cmd/niliconctl for
// full-length runs.
package nilicon_test

import (
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/harness"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

func quickRC() harness.RunConfig {
	return harness.RunConfig{
		Warmup:  500 * simtime.Millisecond,
		Measure: 1500 * simtime.Millisecond,
		Seed:    1,
	}
}

// BenchmarkTable1OptimizationLadder regenerates Table I: streamcluster's
// overhead as each §V optimization lands (paper: 1940% → 31%).
func BenchmarkTable1OptimizationLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.RunTable1(quickRC())
		b.ReportMetric(rows[0].Overhead*100, "basic-%ovh")
		b.ReportMetric(rows[len(rows)-1].Overhead*100, "opt-%ovh")
	}
}

// BenchmarkTable2RecoveryLatency regenerates Table II: the recovery
// latency breakdown for Net and Redis (paper: 307 ms and 372 ms).
func BenchmarkTable2RecoveryLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.RunTable2(quickRC())
		b.ReportMetric(float64(rows[0].Total)/1e6, "net-ms")
		b.ReportMetric(float64(rows[1].Total)/1e6, "redis-ms")
	}
}

// BenchmarkFigure3Overhead regenerates Figure 3 (and, from the same
// runs, Tables III-V): overhead of MC and NiLiCon across the seven
// benchmarks.
func BenchmarkFigure3Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.RunFigure3(quickRC())
		var mcSum, nlSum float64
		for _, r := range rows {
			mcSum += r.MCOverhead
			nlSum += r.NLOverhead
		}
		b.ReportMetric(mcSum/float64(len(rows))*100, "mc-mean-%ovh")
		b.ReportMetric(nlSum/float64(len(rows))*100, "nilicon-mean-%ovh")
	}
}

// BenchmarkTable3StopTime reports the per-benchmark NiLiCon stop times
// (paper Table III: 5.1-38.2 ms) for the two extremes.
func BenchmarkTable3StopTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		swap := harness.RunBatch(workloads.Swaptions, harness.NiLiCon, quickRC())
		node := harness.RunServer(workloads.Node, harness.NiLiCon, quickRC())
		b.ReportMetric(swap.StopMean*1000, "swaptions-stop-ms")
		b.ReportMetric(node.StopMean*1000, "node-stop-ms")
	}
}

// BenchmarkTable4Percentiles reports Table IV's stop-time spread for
// streamcluster (paper: 6.3/6.4/13.1 ms at p10/50/90).
func BenchmarkTable4Percentiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.RunBatch(workloads.Streamcluster, harness.NiLiCon, quickRC())
		b.ReportMetric(res.StopP10*1000, "p10-ms")
		b.ReportMetric(res.StopP50*1000, "p50-ms")
		b.ReportMetric(res.StopP90*1000, "p90-ms")
	}
}

// BenchmarkTable5BackupCPU reports backup-host core utilization under
// NiLiCon (paper Table V: 0.07-0.40 of a core).
func BenchmarkTable5BackupCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		redis := harness.RunServer(workloads.Redis, harness.NiLiCon, quickRC())
		node := harness.RunServer(workloads.Node, harness.NiLiCon, quickRC())
		b.ReportMetric(redis.BackupUtil, "redis-backup-cores")
		b.ReportMetric(node.BackupUtil, "node-backup-cores")
	}
}

// BenchmarkTable6Latency reports single-client response latency
// inflation (paper Table VI, e.g. Redis 3.1 ms → 36.9 ms).
func BenchmarkTable6Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.RunTable6(quickRC())
		b.ReportMetric(float64(rows[0].Stock)/1e6, "redis-stock-ms")
		b.ReportMetric(float64(rows[0].NiLiCon)/1e6, "redis-nilicon-ms")
	}
}

// BenchmarkValidation runs the §VII-A fault-injection experiment (one
// short run per benchmark; the paper runs 50×60 s with 100% recovery).
func BenchmarkValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, _ := harness.RunValidation([]string{"redis", "diskstress", "netstress"}, 1, 6*simtime.Second, int64(i)+1)
		passed := 0
		for _, r := range results {
			if r.Passed {
				passed++
			}
		}
		b.ReportMetric(float64(passed)/float64(len(results))*100, "recovery-%")
	}
}

// BenchmarkScaleThreads regenerates the streamcluster thread sweep
// (paper: 23% → 52% from 1 to 32 threads).
func BenchmarkScaleThreads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.RunScaleThreads([]int{1, 8, 32}, quickRC())
		b.ReportMetric(rows[0].Overhead*100, "1thr-%ovh")
		b.ReportMetric(rows[len(rows)-1].Overhead*100, "32thr-%ovh")
	}
}

// BenchmarkScaleClients regenerates the lighttpd client sweep (paper:
// ≈34% at ≤32 clients to 45% at 128, socket collection 1.2→13 ms).
func BenchmarkScaleClients(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.RunScaleClients([]int{2, 128}, quickRC())
		b.ReportMetric(rows[0].Overhead*100, "2cl-%ovh")
		b.ReportMetric(rows[1].Overhead*100, "128cl-%ovh")
	}
}

// BenchmarkScaleProcs regenerates the lighttpd process sweep (paper:
// 23% → 63% from 1 to 8 processes).
func BenchmarkScaleProcs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.RunScaleProcs([]int{1, 8}, quickRC())
		b.ReportMetric(rows[0].Overhead*100, "1proc-%ovh")
		b.ReportMetric(rows[1].Overhead*100, "8proc-%ovh")
	}
}

// BenchmarkPipelinedVsStopAndCopy compares the epoch pipeline's transfer
// modes on streamcluster: strict stop-and-copy (container frozen until
// the state reaches the backup) against the overlapped pipelined
// transfer (CoW pages stream while the next epoch executes). Wall-clock
// time per iteration is the benchmark metric; the virtual-time overhead
// each mode imposes on the workload is reported alongside.
func BenchmarkPipelinedVsStopAndCopy(b *testing.B) {
	stock := harness.RunBatch(workloads.Streamcluster, harness.Stock, quickRC())
	run := func(b *testing.B, opts core.OptSet) {
		for i := 0; i < b.N; i++ {
			rc := quickRC()
			rc.Opts = &opts
			res := harness.RunBatch(workloads.Streamcluster, harness.NiLiCon, rc)
			b.ReportMetric(harness.Overhead(stock, res)*100, "%ovh")
			b.ReportMetric(res.StopMean*1000, "stop-ms")
		}
	}
	b.Run("StopAndCopy", func(b *testing.B) {
		opts := core.AllOpts()
		opts.StagingBuffer = false
		run(b, opts)
	})
	b.Run("Pipelined", func(b *testing.B) {
		run(b, core.PipelinedOpts())
	})
}

// BenchmarkDeltaVsFullTransfer compares the replication stream with and
// without the delta-compressed wire format (DESIGN.md §8) on the
// memory-heavy streamcluster workload: steady-state bytes on the wire
// per epoch and the p99 output-commit latency. The delta row must show
// a large wire-byte drop with no commit-tail regression.
func BenchmarkDeltaVsFullTransfer(b *testing.B) {
	run := func(b *testing.B, opts core.OptSet) {
		for i := 0; i < b.N; i++ {
			rc := quickRC()
			rc.Opts = &opts
			res := harness.RunBatch(workloads.Streamcluster, harness.NiLiCon, rc)
			b.ReportMetric(res.WireMean, "wire-B/epoch")
			b.ReportMetric(res.CommitP99*1000, "commit-p99-ms")
		}
	}
	b.Run("Full", func(b *testing.B) {
		run(b, core.AllOpts())
	})
	b.Run("DeltaDedup", func(b *testing.B) {
		run(b, core.DeltaOpts())
	})
}
