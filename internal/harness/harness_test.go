package harness

import (
	"strings"

	"testing"

	"nilicon/internal/core"
	"nilicon/internal/metrics"
	"nilicon/internal/simtime"
	"nilicon/internal/trace"
	"nilicon/internal/workloads"
)

// shortRC keeps harness tests fast; full-length runs live behind
// cmd/niliconctl and the top-level benchmarks.
func shortRC() RunConfig {
	return RunConfig{Warmup: 400 * simtime.Millisecond, Measure: simtime.Second, Seed: 3}
}

func TestRunServerStockBaseline(t *testing.T) {
	res := RunServer(workloads.Redis, Stock, shortRC())
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
	if res.Errors != 0 || res.Resets != 0 {
		t.Fatalf("errors=%d resets=%d", res.Errors, res.Resets)
	}
	if res.StopMean != 0 {
		t.Fatal("stock run should have no checkpoints")
	}
}

func TestRunServerNiLiConCollectsStats(t *testing.T) {
	res := RunServer(workloads.Redis, NiLiCon, shortRC())
	if res.Epochs == 0 || res.StopMean <= 0 || res.DirtyMean <= 0 || res.StateP50 <= 0 {
		t.Fatalf("stats missing: %+v", res)
	}
	if res.BackupUtil <= 0 {
		t.Fatal("no backup CPU accounted")
	}
	if res.Errors != 0 {
		t.Fatalf("client errors under replication: %d", res.Errors)
	}
}

func TestRunBatchModes(t *testing.T) {
	rc := shortRC()
	stock := RunBatch(workloads.Swaptions, Stock, rc)
	nl := RunBatch(workloads.Swaptions, NiLiCon, rc)
	mc := RunBatch(workloads.Swaptions, MC, rc)
	if stock.Elapsed <= 0 || nl.Elapsed <= stock.Elapsed || mc.Elapsed <= stock.Elapsed {
		t.Fatalf("elapsed: stock=%v nl=%v mc=%v", stock.Elapsed, nl.Elapsed, mc.Elapsed)
	}
	// Swaptions (Figure 3): MC has lower overhead than NiLiCon.
	if Overhead(stock, mc) >= Overhead(stock, nl) {
		t.Fatalf("swaptions: MC overhead (%.1f%%) should be below NiLiCon's (%.1f%%)",
			Overhead(stock, mc)*100, Overhead(stock, nl)*100)
	}
}

func TestRedisShapeNiLiConBeatsMC(t *testing.T) {
	rc := shortRC()
	stock := RunServer(workloads.Redis, Stock, rc)
	nl := RunServer(workloads.Redis, NiLiCon, rc)
	mc := RunServer(workloads.Redis, MC, rc)
	if Overhead(stock, nl) >= Overhead(stock, mc) {
		t.Fatalf("redis: NiLiCon (%.1f%%) should beat MC (%.1f%%) — Figure 3 crossover",
			Overhead(stock, nl)*100, Overhead(stock, mc)*100)
	}
	// And MC's stop time stays below NiLiCon's (Table III).
	if mc.StopMean >= nl.StopMean {
		t.Fatalf("MC stop %.1fms should be below NiLiCon %.1fms", mc.StopMean*1000, nl.StopMean*1000)
	}
}

func TestOverheadMetric(t *testing.T) {
	s := RunResult{Throughput: 100}
	r := RunResult{Throughput: 60}
	if o := Overhead(s, r); o < 0.39 || o > 0.41 {
		t.Fatalf("throughput overhead = %v", o)
	}
	s = RunResult{Elapsed: simtime.Duration(2 * simtime.Second)}
	r = RunResult{Elapsed: simtime.Duration(3 * simtime.Second)}
	if o := Overhead(s, r); o < 0.49 || o > 0.51 {
		t.Fatalf("elapsed overhead = %v", o)
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("nope", Stock, shortRC()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	res, err := Run("swaptions", Stock, shortRC())
	if err != nil || res.Elapsed <= 0 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestTable1LadderShape(t *testing.T) {
	rows, tb := RunTable1(RunConfig{Measure: simtime.Second, Seed: 2})
	if len(rows) != 7 {
		t.Fatalf("ladder rows = %d", len(rows))
	}
	// Overheads must drop dramatically from basic to fully optimized.
	first, last := rows[0].Overhead, rows[len(rows)-1].Overhead
	if first < 5 {
		t.Fatalf("basic overhead = %.0f%%, paper says 1940%%", first*100)
	}
	if last > 0.6 {
		t.Fatalf("optimized overhead = %.0f%%, paper says 31%%", last*100)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].StopMean > rows[i-1].StopMean*110/100 {
			t.Fatalf("ladder step %d (%s) raised stop time", i, rows[i].Name)
		}
	}
	if tb.NumRows() != 7 {
		t.Fatal("table rows mismatch")
	}
}

func TestTable2RecoveryBreakdown(t *testing.T) {
	rows, tb := RunTable2(RunConfig{Warmup: 300 * simtime.Millisecond, Measure: simtime.Second, Seed: 4})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	net, redis := rows[0], rows[1]
	if net.Bench != "net" || redis.Bench != "redis" {
		t.Fatalf("row order: %v %v", net.Bench, redis.Bench)
	}
	// Structure: detection ≈90-150ms; ARP = 28ms; restore dominates;
	// redis restores ≳ net (it carries ~70MB of preloaded memory).
	for _, r := range rows {
		if r.Detection < 80*simtime.Millisecond || r.Detection > 200*simtime.Millisecond {
			t.Fatalf("%s detection = %v", r.Bench, r.Detection)
		}
		if r.ARP != 28*simtime.Millisecond {
			t.Fatalf("%s ARP = %v", r.Bench, r.ARP)
		}
		if r.Restore <= r.ARP {
			t.Fatalf("%s restore (%v) should dominate", r.Bench, r.Restore)
		}
		if r.Total <= 0 {
			t.Fatalf("%s total = %v", r.Bench, r.Total)
		}
	}
	if redis.Restore <= net.Restore {
		t.Fatalf("redis restore (%v) should exceed net's (%v): more memory", redis.Restore, net.Restore)
	}
	_ = tb.String()
}

func TestValidationAllPass(t *testing.T) {
	results, tb := RunValidation([]string{"diskstress", "netstress", "redis"}, 2, 6*simtime.Second, 77, core.AllOpts(), nil)
	for _, r := range results {
		if !r.Passed {
			t.Fatalf("validation failed: %+v", r)
		}
	}
	if tb.NumRows() != 3 {
		t.Fatalf("summary rows = %d", tb.NumRows())
	}
}

func TestScaleProcsTrend(t *testing.T) {
	rows, _ := RunScaleProcs([]int{1, 4}, RunConfig{Warmup: 300 * simtime.Millisecond, Measure: simtime.Second, Seed: 5})
	if rows[1].Overhead <= rows[0].Overhead {
		t.Fatalf("overhead should grow with processes: %v", rows)
	}
	if rows[1].StopMean <= rows[0].StopMean {
		t.Fatalf("stop time should grow with processes: %v", rows)
	}
}

func TestScaleClientsTrend(t *testing.T) {
	rows, _ := RunScaleClients([]int{2, 128}, RunConfig{Warmup: 300 * simtime.Millisecond, Measure: simtime.Second, Seed: 6})
	if rows[1].StopMean <= rows[0].StopMean {
		t.Fatalf("socket collection should grow with clients: %v", rows)
	}
}

func TestScaleThreadsTrend(t *testing.T) {
	rows, _ := RunScaleThreads([]int{1, 8}, RunConfig{Measure: simtime.Second, Seed: 8})
	if rows[1].Overhead <= rows[0].Overhead {
		t.Fatalf("overhead should grow with threads: %v", rows)
	}
}

func TestNLConfigUsesProfileResiduals(t *testing.T) {
	prof := workloads.Lighttpd().Profile()
	cfg := nlConfig(prof, func() workloads.Workload { return workloads.Lighttpd() }, shortRC())
	if cfg.ExtraStopPerCheckpoint != prof.TotalExtraStop() {
		t.Fatal("residual stop not propagated")
	}
	var optsOverride = core.BasicOpts()
	rc := shortRC()
	rc.Opts = &optsOverride
	cfg = nlConfig(prof, func() workloads.Workload { return workloads.Lighttpd() }, rc)
	if cfg.Opts != optsOverride {
		t.Fatal("opts override ignored")
	}
}

func TestRenderFigure3(t *testing.T) {
	rows := []Fig3Row{{
		Bench:      "redis",
		MCOverhead: 0.67, MCStopFrac: 0.2, MCRuntimeFrac: 0.4,
		NLOverhead: 0.34, NLStopFrac: 0.3, NLRuntimeFrac: 0.05,
	}}
	out := RenderFigure3(rows)
	for _, want := range []string{"redis", "MC", "NiLiCon", "67.00%", "34.00%", "█", "░"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered figure missing %q:\n%s", want, out)
		}
	}
}

// TestEpochColumnsCountTheWindowsRecords: every per-epoch column of a
// RunResult is derived from exactly the timeline records of epochs that
// started in the measurement window. The run stops with an epoch in
// flight: it froze, collected and resumed inside the window, but its
// output was not released before Stop, so it has no record and must
// appear in no column — its stop time included.
func TestEpochColumnsCountTheWindowsRecords(t *testing.T) {
	rc := shortRC()
	res := RunServer(workloads.Redis, NiLiCon, rc)
	from := simtime.Time(rc.Warmup) // RunServer's measurement start
	var window []trace.EpochRecord
	for _, rec := range res.Timeline.Records() {
		if rec.At >= from {
			window = append(window, rec)
		}
	}
	if len(window) < 10 {
		t.Fatalf("%d records in the window, want a steady-state sample", len(window))
	}
	if last := window[len(window)-1].Epoch; last+1 >= res.Epochs {
		t.Fatalf("last record is epoch %d of %d taken: no epoch in flight at Stop", last, res.Epochs)
	}

	var stop, state, dirty, transfer, commit, wire metrics.Stream
	var frames, delta, dedup int
	for _, rec := range window {
		stop.Add(rec.Stop.Seconds())
		state.Add(float64(rec.StateBytes))
		dirty.Add(float64(rec.DirtyPages))
		transfer.Add(rec.Transfer.Seconds())
		commit.Add(rec.Commit.Seconds())
		wire.Add(float64(rec.WireBytes))
		frames += rec.FullFrames + rec.DeltaFrames + rec.ZeroFrames + rec.DedupFrames
		delta += rec.DeltaFrames + rec.ZeroFrames
		dedup += rec.DedupFrames
	}
	cols := []struct {
		name      string
		got, want float64
	}{
		{"StopMean", res.StopMean, stop.Mean()},
		{"StopP10", res.StopP10, stop.Percentile(10)},
		{"StopP50", res.StopP50, stop.Percentile(50)},
		{"StopP90", res.StopP90, stop.Percentile(90)},
		{"StopFrac", res.StopFrac, stop.Sum() / rc.Measure.Seconds()},
		{"StateP10", res.StateP10, state.Percentile(10)},
		{"StateP50", res.StateP50, state.Percentile(50)},
		{"StateP90", res.StateP90, state.Percentile(90)},
		{"DirtyMean", res.DirtyMean, dirty.Mean()},
		{"TransferMean", res.TransferMean, transfer.Mean()},
		{"CommitMean", res.CommitMean, commit.Mean()},
		{"CommitP99", res.CommitP99, commit.Percentile(99)},
		{"WireMean", res.WireMean, wire.Mean()},
		{"DeltaHit", res.DeltaHit, float64(delta) / float64(frames)},
		{"DedupHit", res.DedupHit, float64(dedup) / float64(frames)},
	}
	for _, c := range cols {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v from the window's %d records", c.name, c.got, c.want, len(window))
		}
	}
}
