package harness

import (
	"fmt"

	"nilicon/internal/core"
	"nilicon/internal/faultinject"
	"nilicon/internal/metrics"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

// Progress receives experiment progress lines, printf-style. The CLI
// points it at stderr; a nil Progress drops them.
type Progress func(format string, args ...any)

func (p Progress) printf(format string, args ...any) {
	if p != nil {
		p(format, args...)
	}
}

// --- Table I: the optimization ladder ---------------------------------------

// Table1Row is one rung of the ladder.
type Table1Row struct {
	Name     string
	Overhead float64 // relative execution-time increase on streamcluster
	StopMean simtime.Duration
}

// RunTable1 reproduces Table I: streamcluster's overhead as each §V
// optimization is enabled cumulatively. Paper: 1940% → 31%. The rungs
// run on rc.Jobs workers; each run is an independent
// deterministic simulation, and rows are collected in ladder order.
func RunTable1(rc RunConfig) ([]Table1Row, *metrics.Table) {
	rc.defaults()
	stock := RunBatch(workloads.Streamcluster, Stock, rc)
	ladder := core.Table1Ladder()
	rows := make([]Table1Row, len(ladder))
	runIndexed(len(ladder), rc.Jobs,
		func(i int) {
			stepRC := rc
			opts := ladder[i].Opts
			stepRC.Opts = &opts
			res := RunBatch(workloads.Streamcluster, NiLiCon, stepRC)
			rows[i] = Table1Row{
				Name:     ladder[i].Name,
				Overhead: Overhead(stock, res),
				StopMean: simtime.Duration(res.StopMean * float64(simtime.Second)),
			}
		},
		func(i int) { rc.Progress.printf("table1: %s", ladder[i].Name) })
	tb := metrics.NewTable("Table I: impact of NiLiCon's performance optimizations (streamcluster)",
		"Optimization", "Overhead", "Mean stop")
	for _, r := range rows {
		tb.AddRow(r.Name, fmt.Sprintf("%.0f%%", r.Overhead*100), fmt.Sprintf("%.1fms", float64(r.StopMean)/1e6))
	}
	return rows, tb
}

// --- Figure 3 / Table III ----------------------------------------------------

// Fig3Row compares MC and NiLiCon on one benchmark.
type Fig3Row struct {
	Bench string

	MCOverhead                float64
	MCStop                    simtime.Duration
	MCDirty                   float64
	MCStopFrac, MCRuntimeFrac float64

	NLOverhead                float64
	NLStop                    simtime.Duration
	NLDirty                   float64
	NLStopFrac, NLRuntimeFrac float64

	// Raw results for downstream tables.
	Stock, NLRes RunResult
}

// RunFigure3 measures overhead under maximum CPU utilization for every
// benchmark under both MC and NiLiCon, with the stop/runtime breakdown.
// The same runs also provide Table III (stop time and dirty pages),
// Table IV (percentiles) and Table V (utilization).
func RunFigure3(rc RunConfig) ([]Fig3Row, *metrics.Table) {
	var rows []Fig3Row
	for _, name := range workloads.BenchmarkNames() {
		rc.Progress.printf("fig3: %s stock...", name)
		stock, err := Run(name, Stock, rc)
		if err != nil {
			panic(err)
		}
		rc.Progress.printf("fig3: %s mc...", name)
		mc, _ := Run(name, MC, rc)
		rc.Progress.printf("fig3: %s nilicon...", name)
		nl, _ := Run(name, NiLiCon, rc)
		rows = append(rows, Fig3Row{
			Bench:      name,
			MCOverhead: Overhead(stock, mc),
			MCStop:     simtime.Duration(mc.StopMean * float64(simtime.Second)),
			MCDirty:    mc.DirtyMean,
			MCStopFrac: mc.StopFrac, MCRuntimeFrac: mc.RuntimeFrac,
			NLOverhead: Overhead(stock, nl),
			NLStop:     simtime.Duration(nl.StopMean * float64(simtime.Second)),
			NLDirty:    nl.DirtyMean,
			NLStopFrac: nl.StopFrac, NLRuntimeFrac: nl.RuntimeFrac,
			Stock: stock, NLRes: nl,
		})
	}
	tb := metrics.NewTable("Figure 3: performance overhead, MC vs NiLiCon (with stop/runtime shares of wall time)",
		"Benchmark", "MC", "MC stop/run", "NiLiCon", "NiLiCon stop/run")
	for _, r := range rows {
		tb.AddRow(r.Bench,
			fmt.Sprintf("%.2f%%", r.MCOverhead*100),
			fmt.Sprintf("%.0f%%/%.0f%%", r.MCStopFrac*100, r.MCRuntimeFrac*100),
			fmt.Sprintf("%.2f%%", r.NLOverhead*100),
			fmt.Sprintf("%.0f%%/%.0f%%", r.NLStopFrac*100, r.NLRuntimeFrac*100))
	}
	return rows, tb
}

// Table3 renders the Fig3 rows as Table III.
func Table3(rows []Fig3Row) *metrics.Table {
	tb := metrics.NewTable("Table III: average stop time & #dirty pages per epoch",
		"Benchmark", "Stop MC", "Stop NiLiCon", "DPage MC", "DPage NiLiCon")
	for _, r := range rows {
		tb.AddRow(r.Bench,
			fmt.Sprintf("%.1fms", float64(r.MCStop)/1e6),
			fmt.Sprintf("%.1fms", float64(r.NLStop)/1e6),
			metrics.FormatCount(int64(r.MCDirty)),
			metrics.FormatCount(int64(r.NLDirty)))
	}
	return tb
}

// Table4 renders the NiLiCon stop-time and state-size percentiles.
func Table4(rows []Fig3Row) *metrics.Table {
	tb := metrics.NewTable("Table IV: NiLiCon stop time and transferred state size (10/50/90 percentile)",
		"Benchmark", "Stop p10", "Stop p50", "Stop p90", "State p10", "State p50", "State p90")
	for _, r := range rows {
		n := r.NLRes
		tb.AddRow(r.Bench,
			fmt.Sprintf("%.1fms", n.StopP10*1000),
			fmt.Sprintf("%.1fms", n.StopP50*1000),
			fmt.Sprintf("%.1fms", n.StopP90*1000),
			metrics.FormatBytes(int64(n.StateP10)),
			metrics.FormatBytes(int64(n.StateP50)),
			metrics.FormatBytes(int64(n.StateP90)))
	}
	return tb
}

// Table5 renders active vs backup core utilization.
func Table5(rows []Fig3Row) *metrics.Table {
	tb := metrics.NewTable("Table V: core utilization on active and backup hosts (NiLiCon)",
		"Benchmark", "Active", "Backup")
	for _, r := range rows {
		// "Active" is measured on a host running the benchmark WITHOUT
		// replication (§VII-C); "Backup" under NiLiCon.
		tb.AddRow(r.Bench,
			fmt.Sprintf("%.2f", r.Stock.ActiveUtil),
			fmt.Sprintf("%.2f", r.NLRes.BackupUtil))
	}
	return tb
}

// --- Table VI: single-client response latency --------------------------------

// Table6Row compares stock vs NiLiCon response latency with one client.
type Table6Row struct {
	Bench   string
	Stock   simtime.Duration
	NiLiCon simtime.Duration
}

// RunTable6 measures request response latency with a single client for
// the five server benchmarks (per §VII-C: for Redis/SSDB a "request" is
// one 1000-operation batch).
func RunTable6(rc RunConfig) ([]Table6Row, *metrics.Table) {
	rc.defaults()
	var rows []Table6Row
	for _, name := range []string{"redis", "ssdb", "node", "lighttpd", "djcms"} {
		rc.Progress.printf("table6: %s...", name)
		name := name
		mk := func() *workloads.Server {
			wl, _ := workloads.ByName(name)
			sv := wl.(*workloads.Server)
			prof := sv.Profile()
			// One request (batch) outstanding at a time: the latency
			// measurement is per §VII-C, not a saturation run.
			prof.PipelineDepth = 1
			return workloads.NewServer(prof)
		}
		one := rc
		one.Clients = 1
		stock := RunServer(mk, Stock, one)
		nl := RunServer(mk, NiLiCon, one)
		rows = append(rows, Table6Row{
			Bench:   name,
			Stock:   simtime.Duration(stock.LatencyMean * float64(simtime.Second)),
			NiLiCon: simtime.Duration(nl.LatencyMean * float64(simtime.Second)),
		})
	}
	tb := metrics.NewTable("Table VI: response latency with a single client",
		"Benchmark", "Stock", "NiLiCon")
	for _, r := range rows {
		tb.AddRow(r.Bench,
			fmt.Sprintf("%.1fms", float64(r.Stock)/1e6),
			fmt.Sprintf("%.1fms", float64(r.NiLiCon)/1e6))
	}
	return rows, tb
}

// --- Table II: recovery latency ----------------------------------------------

// Table2Row is one recovery-latency measurement.
type Table2Row struct {
	Bench     string
	Restore   simtime.Duration
	ARP       simtime.Duration
	TCP       simtime.Duration
	Other     simtime.Duration
	Total     simtime.Duration
	Detection simtime.Duration
	// ClientGap is the probe clients' observed service interruption
	// beyond detection (diagnostic; includes the client-side
	// exponential-backoff retransmission of requests sent into the
	// outage, which the paper's Total excludes).
	ClientGap simtime.Duration
}

// RunTable2 reproduces the recovery-latency breakdown: the Net echo
// microbenchmark and Redis preloaded with data, with probe clients
// measuring the service interruption (§VII-B).
func RunTable2(rc RunConfig) ([]Table2Row, *metrics.Table) {
	rc.defaults()
	rows := []Table2Row{
		runRecovery("net", workloads.NetEcho, 1, rc),
		runRecovery("redis", workloads.Redis, 4, rc),
	}
	tb := metrics.NewTable("Table II: recovery latency breakdown",
		"Benchmark", "Restore", "ARP", "TCP", "Others", "Total", "(Detect/ClientGap)")
	for _, r := range rows {
		pct := func(d simtime.Duration) string {
			if r.Total == 0 {
				return "-"
			}
			return fmt.Sprintf("%.0fms (%.0f%%)", float64(d)/1e6, 100*float64(d)/float64(r.Total))
		}
		tb.AddRow(r.Bench, pct(r.Restore), pct(r.ARP), pct(r.TCP), pct(r.Other),
			fmt.Sprintf("%.0fms", float64(r.Total)/1e6),
			fmt.Sprintf("%.0fms / %.0fms", float64(r.Detection)/1e6, float64(r.ClientGap)/1e6))
	}
	return rows, tb
}

func runRecovery(name string, mk func() *workloads.Server, probes int, rc RunConfig) Table2Row {
	wl := mk()
	prof := wl.Profile()
	clock, cl, ctr := setup(wl, 0)
	cfg := nlConfig(prof, func() workloads.Workload { return mk() }, rc)
	var recovered *core.RecoveryStats
	cfg.OnRecovered = func(_ core.RestoredContainer, s core.RecoveryStats) { recovered = &s }
	repl := core.NewReplicator(cl, ctr, cfg)
	repl.Start()

	if name == "redis" {
		// Preload ≈100 MB so restore has real memory to repopulate, and
		// run one stressing client (§VII-B).
		preload(clock, cl, wl, 18000)
		wl.NewClients(cl, "10.0.0.10", 1, rc.Seed+100)
	}
	// Probe clients measure service interruption.
	set := workloads.NewClientSet(cl, prof, "10.0.0.10", probeKind(name), probes, rc.Seed)
	clock.RunFor(2 * simtime.Second)

	// Inject the fail-stop fault.
	failAt := clock.Now()
	faultinject.FailStop(repl)

	// Track the probes' last response before and first after recovery.
	lastBefore := set.Completed
	for i := 0; i < 20000 && recovered == nil; i++ {
		clock.RunFor(simtime.Millisecond)
	}
	if recovered == nil {
		panic("harness: recovery never completed for " + name)
	}
	// Wait for the first post-recovery response.
	firstRespAt := simtime.Time(0)
	for i := 0; i < 20000; i++ {
		if set.Completed > lastBefore {
			firstRespAt = clock.Now()
			break
		}
		clock.RunFor(simtime.Millisecond)
	}
	row := Table2Row{
		Bench:     name,
		Restore:   recovered.Restore,
		ARP:       recovered.ARP,
		TCP:       recovered.TCP,
		Other:     recovered.Other,
		Detection: recovered.DetectedAt.Sub(failAt),
	}
	if firstRespAt > 0 {
		row.ClientGap = firstRespAt.Sub(recovered.DetectedAt)
	}
	row.Total = row.Restore + row.ARP + row.TCP + row.Other
	return row
}

func probeKind(name string) workloads.ClientKind {
	if name == "redis" {
		return workloads.KVProbe
	}
	return workloads.EchoLoop
}

// preload fills the KV store with records before measurement.
func preload(clock *simtime.Clock, cl *core.Cluster, wl *workloads.Server, records int) {
	prof := wl.Profile()
	loader := workloads.NewLoader(cl, prof, "10.0.0.10", records)
	for i := 0; i < 40000 && !loader.Done(); i++ {
		clock.RunFor(5 * simtime.Millisecond)
	}
	if !loader.Done() {
		panic("harness: preload did not finish")
	}
}

// --- §VII-A validation ---------------------------------------------------------

// ValidationResult is one fault-injection run's outcome.
type ValidationResult struct {
	Bench      string
	Recovered  bool
	ClientErrs int
	Resets     int
	ServerErrs int
	ProgressOK bool
	Passed     bool
}

// RunValidation performs the §VII-A experiment: each benchmark runs for
// runLength with a fail-stop fault injected at a random time within the
// middle 80%; recovery must complete with no broken connections, no
// content errors, and continued progress. The paper runs 50 iterations
// of ≥60 s per benchmark; runs and runLength are configurable so tests
// stay fast. Every run's replicator uses opts: the output-commit
// guarantees of §VII-A must hold identically under, say, the overlapped
// transfer or the delta stream. progress receives a line per run.
func RunValidation(benches []string, runs int, runLength simtime.Duration, seed int64, opts core.OptSet, progress Progress) ([]ValidationResult, *metrics.Table) {
	if len(benches) == 0 {
		benches = []string{"diskstress", "netstress", "redis", "ssdb", "node", "lighttpd", "djcms", "swaptions", "streamcluster"}
	}
	var results []ValidationResult
	for _, name := range benches {
		for run := 0; run < runs; run++ {
			progress.printf("validate: %s run %d/%d...", name, run+1, runs)
			results = append(results, validateOnce(name, runLength, seed+int64(run)*104729, opts, progress))
		}
	}
	tb := metrics.NewTable("§VII-A validation: fail-stop fault injection",
		"Benchmark", "Runs", "Recovered", "Passed")
	byBench := map[string][3]int{}
	order := []string{}
	for _, r := range results {
		c, ok := byBench[r.Bench]
		if !ok {
			order = append(order, r.Bench)
		}
		c[0]++
		if r.Recovered {
			c[1]++
		}
		if r.Passed {
			c[2]++
		}
		byBench[r.Bench] = c
	}
	for _, b := range order {
		c := byBench[b]
		tb.AddRow(b, fmt.Sprint(c[0]), fmt.Sprintf("%d/%d", c[1], c[0]), fmt.Sprintf("%d/%d", c[2], c[0]))
	}
	return results, tb
}

func validateOnce(name string, runLength simtime.Duration, seed int64, opts core.OptSet, progress Progress) ValidationResult {
	wl, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	if pw, ok := wl.(*workloads.Parsec); ok {
		// Size the input so the kernel runs for the whole experiment
		// (fault injection must land mid-execution, §VII-A).
		p := pw.Profile()
		units := int(float64(runLength) / float64(p.UnitCPU) * float64(p.ThreadsPer) * 3)
		pw.SetWorkUnits(units)
	}
	prof := wl.Profile()
	clock, cl, ctr := setup(wl, 0)
	rc := RunConfig{Seed: seed, Opts: &opts, Progress: progress}
	rc.defaults()
	cfg := nlConfig(prof, func() workloads.Workload {
		fresh, _ := workloads.ByName(name)
		if pw, ok := fresh.(*workloads.Parsec); ok {
			pw.SetWorkUnits(prof.WorkUnits)
		}
		return fresh
	}, rc)
	repl := core.NewReplicator(cl, ctr, cfg)
	repl.Start()

	var set *workloads.ClientSet
	if sv, ok := wl.(*workloads.Server); ok {
		set = sv.NewClients(cl, "10.0.0.10", 0, seed)
	}

	res := ValidationResult{Bench: name}
	faultinject.Schedule(repl, runLength, seed, faultinject.FailStop)
	clock.RunFor(runLength)
	// Allow recovery to complete, then let post-recovery traffic settle.
	var progressBase int64 = -1
	for i := 0; i < 100 && progressBase < 0; i++ {
		clock.RunFor(50 * simtime.Millisecond)
		if repl.Backup.Recovered() && repl.Backup.Recovery != nil && repl.Backup.Recovery.NetworkLiveAt > 0 {
			progressBase = progressCount(wl, set, repl)
		}
	}
	clock.RunFor(2 * simtime.Second)

	res.Recovered = repl.Backup.Recovered() && repl.Backup.RecoverError() == nil && repl.Backup.RestoredCtr != nil
	if set != nil {
		res.ClientErrs = len(set.ValidationErrors())
		res.Resets = set.Resets
	}
	if res.Recovered {
		res.ProgressOK = progressBase < 0 || progressCount(wl, set, repl) > progressBase
		// A batch workload that ran to completion after recovery also
		// counts as progress.
		if !res.ProgressOK && repl.Backup.RestoredCtr != nil {
			if app, ok := repl.Backup.RestoredCtr.App.(*workloads.Parsec); ok && app.Done() {
				res.ProgressOK = true
			}
		}
		if app, ok := appErrors(repl); ok {
			res.ServerErrs = app
		}
	}
	res.Passed = res.Recovered && res.ClientErrs == 0 && res.Resets == 0 && res.ServerErrs == 0 && res.ProgressOK
	return res
}

func progressCount(wl workloads.Workload, set *workloads.ClientSet, repl *core.Replicator) int64 {
	if set != nil {
		return set.Completed
	}
	if repl.Backup.RestoredCtr != nil {
		switch app := repl.Backup.RestoredCtr.App.(type) {
		case *workloads.Parsec:
			return int64(app.CompletedUnits())
		case *workloads.DiskStress:
			return int64(app.Ops())
		}
	}
	return 0
}

func appErrors(repl *core.Replicator) (int, bool) {
	if repl.Backup.RestoredCtr == nil {
		return 0, false
	}
	switch app := repl.Backup.RestoredCtr.App.(type) {
	case *workloads.Server:
		return len(app.AppErrors()), true
	case *workloads.DiskStress:
		return len(app.Errors()), true
	case *workloads.Parsec:
		return len(app.Errors()), true
	}
	return 0, false
}
