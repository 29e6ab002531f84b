// Package harness drives the experiments that regenerate every table and
// figure of the paper's evaluation (§VII). Each RunXxx function builds a
// fresh deterministic simulation, executes the experiment, and returns
// typed rows plus a rendered text table. The CLI (cmd/niliconctl) is a
// thin wrapper around this package; its TestCommittedOutputs pins every
// rendered table byte for byte.
package harness

import (
	"fmt"
	"strings"

	"nilicon/internal/container"
	"nilicon/internal/core"
	"nilicon/internal/metrics"
	"nilicon/internal/remus"
	"nilicon/internal/simtime"
	"nilicon/internal/trace"
	"nilicon/internal/workloads"
)

// Mode selects the replication scheme under test.
type Mode int

// Modes.
const (
	Stock Mode = iota // no replication
	NiLiCon
	MC
)

func (m Mode) String() string {
	switch m {
	case Stock:
		return "Stock"
	case NiLiCon:
		return "NiLiCon"
	case MC:
		return "MC"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// RunConfig controls measurement windows. Zero values take defaults
// sized for fast, statistically stable runs.
type RunConfig struct {
	Warmup  simtime.Duration
	Measure simtime.Duration
	Seed    int64
	// Opts overrides the NiLiCon optimization set (AllOpts by default).
	// Experiments that pin their own rows (the Table I ladder, the
	// pipeline ablation) replace it per row.
	Opts *core.OptSet
	// Clients overrides the profile's saturating client count.
	Clients int
	// Jobs is the worker-pool width for experiments that fan out over
	// independent simulations (the Table I ladder, the pipeline
	// ablation); 0 or 1 runs serially. Each seeded run stays
	// single-threaded and results are collected in a fixed order, so
	// output is byte-identical for any Jobs.
	Jobs int
	// Progress receives progress lines (nil drops them).
	Progress Progress
}

func (rc *RunConfig) defaults() {
	if rc.Warmup == 0 {
		rc.Warmup = simtime.Second
	}
	if rc.Measure == 0 {
		rc.Measure = 3 * simtime.Second
	}
	if rc.Seed == 0 {
		rc.Seed = 1
	}
}

// RunResult is one benchmark execution's measurements.
type RunResult struct {
	Bench string
	Mode  Mode

	// Throughput is requests/second (server benchmarks).
	Throughput float64
	// Elapsed is the completion time (batch benchmarks).
	Elapsed simtime.Duration

	// Checkpoint statistics (virtual time, seconds / pages / bytes).
	StopMean, StopP10, StopP50, StopP90     float64
	StateMean, StateP10, StateP50, StateP90 float64
	DirtyMean                               float64

	// Overhead components relative to useful execution time.
	StopFrac    float64 // Σstop / wall
	RuntimeFrac float64 // Σruntime overhead / wall

	// Core utilization (Table V).
	ActiveUtil float64
	BackupUtil float64

	// Client-observed mean latency (seconds) and errors.
	LatencyMean float64
	Errors      int
	Resets      int

	Epochs uint64

	// StageMeans holds the mean virtual-time cost of each pipeline stage
	// (seconds, indexed by core.Stage; NiLiCon mode only).
	StageMeans [core.NumStages]float64

	// Wire-format measurements (NiLiCon mode; DESIGN.md §8). WireMean is
	// the mean bytes actually sent per steady-state epoch — equal to
	// StateMean unless the delta encoder compressed the stream. CommitP50
	// and CommitP99 are percentiles of the end-to-end output-commit
	// latency (seconds).
	WireMean             float64
	CommitP50, CommitP99 float64
	DeltaHit, DedupHit   float64
}

// setup builds a cluster with the workload installed on a protected
// container.
func setup(wl workloads.Workload, cores int) (*simtime.Clock, *core.Cluster, *container.Container) {
	sc := simtime.NewEngine()
	clock := sc.Root()
	cl := core.NewShardedCluster(sc, core.ClusterParams{})
	if cores <= 0 {
		prof := wl.Profile()
		cores = prof.Procs * prof.ThreadsPer
		if cores < 1 {
			cores = 1
		}
	}
	ctr := cl.NewProtectedContainer(wl.Profile().Name, "10.0.0.10", cores)
	wl.Install(ctr)
	return clock, cl, ctr
}

// nlConfig derives the NiLiCon configuration for a profile. Reattach
// constructs a fresh workload instance bound to the restored container
// (the fail-stopped primary may still be executing the old instance).
func nlConfig(prof workloads.Profile, fresh func() workloads.Workload, rc RunConfig) core.Config {
	cfg := core.DefaultConfig()
	if rc.Opts != nil {
		cfg.Opts = *rc.Opts
	}
	cfg.ExtraStopPerCheckpoint = prof.TotalExtraStop()
	cfg.RuntimeTaxPerEpoch = prof.RuntimeTax
	cfg.Reattach = func(ctr core.RestoredContainer, state any) {
		if err := fresh().Reattach(ctr, state); err != nil {
			// The workload recorded the failure in its own error list, which
			// the validation oracles read (appErrors); log it for humans too.
			rc.Progress.printf("reattach %s: %v", prof.Name, err)
		}
	}
	return cfg
}

// RunServer measures one server benchmark in one mode.
func RunServer(mk func() *workloads.Server, mode Mode, rc RunConfig) RunResult {
	rc.defaults()
	wl := mk()
	prof := wl.Profile()
	clock, cl, ctr := setup(wl, 0)
	res := RunResult{Bench: prof.Name, Mode: mode}

	var repl *core.Replicator
	var mc *remus.MC
	switch mode {
	case NiLiCon:
		repl = core.NewReplicator(cl, ctr, nlConfig(prof, func() workloads.Workload { return mk() }, rc))
		repl.Start()
	case MC:
		mc = remus.New(cl, ctr, remus.Config{
			KernelDirtyPages:   prof.KernelDirtyPages,
			RuntimeTaxPerEpoch: prof.RuntimeTax + prof.MCExtraTax,
		})
		mc.Start()
	}

	clients := rc.Clients
	if clients <= 0 {
		clients = prof.Clients
	}
	set := wl.NewClients(cl, "10.0.0.10", clients, rc.Seed)

	clock.RunFor(rc.Warmup)
	set.BeginWindow()
	if repl != nil {
		// Measure steady state: drop the initial synchronization and the
		// epochs queued behind its bulk transfer.
		repl.ResetMeasurement()
	}
	runtimeAt := ctr.RuntimeOverhead
	busyAt := ctr.CPUBusy
	var backupAt simtime.Duration
	if repl != nil {
		backupAt = repl.Backup.CPUBusy
	}
	start := clock.Now()
	clock.RunFor(rc.Measure)
	wall := clock.Now().Sub(start).Seconds()

	res.Throughput = set.WindowThroughput()
	res.LatencyMean = set.Latencies.Mean()
	res.Errors = len(set.Errors)
	res.Resets = set.Resets
	res.RuntimeFrac = (ctr.RuntimeOverhead - runtimeAt).Seconds() / wall
	// ActiveUtil is total busy cores (Table V reports 3.96 for a
	// 4-thread benchmark), not a 0-1 fraction.
	res.ActiveUtil = (ctr.CPUBusy - busyAt).Seconds() / wall

	switch mode {
	case NiLiCon:
		repl.Stop()
		res.Epochs = repl.Epochs()
		fillStats(&res, &repl.StopTimes, &repl.StateBytes, &repl.DirtyPages, wall)
		fillStageMeans(&res, repl)
		res.BackupUtil = (repl.Backup.CPUBusy - backupAt).Seconds() / wall
	case MC:
		mc.Stop()
		res.Epochs = mc.Epochs()
		fillStats(&res, &mc.StopTimes, &mc.StateBytes, &mc.DirtyPages, wall)
	}
	return res
}

// RunBatch measures one batch benchmark in one mode: the time to finish
// the profile's work units.
func RunBatch(mk func() *workloads.Parsec, mode Mode, rc RunConfig) RunResult {
	rc.defaults()
	wl := mk()
	prof := wl.Profile()
	clock, cl, ctr := setup(wl, 0)
	res := RunResult{Bench: prof.Name, Mode: mode}

	var repl *core.Replicator
	var mc *remus.MC
	switch mode {
	case NiLiCon:
		repl = core.NewReplicator(cl, ctr, nlConfig(prof, func() workloads.Workload { return mk() }, rc))
		repl.Start()
	case MC:
		mc = remus.New(cl, ctr, remus.Config{
			KernelDirtyPages:   prof.KernelDirtyPages,
			RuntimeTaxPerEpoch: prof.RuntimeTax + prof.MCExtraTax,
		})
		mc.Start()
	}

	start := clock.Now()
	if repl != nil {
		// Let the initial synchronization and its queued epochs drain,
		// then measure steady state (the workload keeps executing, so the
		// elapsed time still covers the whole run).
		clock.RunFor(rc.Warmup)
		repl.ResetMeasurement()
	}
	// Run until the workload finishes (bounded by a generous ceiling).
	for i := 0; i < 100000 && !wl.Done(); i++ {
		clock.RunFor(10 * simtime.Millisecond)
	}
	res.Elapsed = clock.Now().Sub(start)
	wall := res.Elapsed.Seconds()
	res.RuntimeFrac = ctr.RuntimeOverhead.Seconds() / wall
	res.ActiveUtil = ctr.CPUBusy.Seconds() / wall

	switch mode {
	case NiLiCon:
		repl.Stop()
		res.Epochs = repl.Epochs()
		fillStats(&res, &repl.StopTimes, &repl.StateBytes, &repl.DirtyPages, wall)
		fillStageMeans(&res, repl)
		res.BackupUtil = repl.Backup.CPUBusy.Seconds() / wall
	case MC:
		mc.Stop()
		res.Epochs = mc.Epochs()
		fillStats(&res, &mc.StopTimes, &mc.StateBytes, &mc.DirtyPages, wall)
	}
	return res
}

func fillStats(res *RunResult, stop, state, dirty *metrics.Stream, wall float64) {
	res.StopMean = stop.Mean()
	res.StopP10 = stop.Percentile(10)
	res.StopP50 = stop.Percentile(50)
	res.StopP90 = stop.Percentile(90)
	res.StateMean = state.Mean()
	res.StateP10 = state.Percentile(10)
	res.StateP50 = state.Percentile(50)
	res.StateP90 = state.Percentile(90)
	res.DirtyMean = dirty.Mean()
	if wall > 0 {
		res.StopFrac = stop.Sum() / wall
	}
}

func fillStageMeans(res *RunResult, repl *core.Replicator) {
	for s := core.Stage(0); s < core.NumStages; s++ {
		res.StageMeans[s] = repl.StageTimes[s].Mean()
	}
	res.WireMean = repl.BytesOnWire.Mean()
	res.CommitP50 = repl.StageTimes[core.StageReleaseOutput].Percentile(50)
	res.CommitP99 = repl.StageTimes[core.StageReleaseOutput].Percentile(99)
	res.DeltaHit = repl.DeltaHitRate()
	res.DedupHit = repl.DedupHitRate()
}

// RunTimeline runs a server benchmark under NiLiCon and returns the
// per-epoch time series as CSV (the data behind Table IV's variations).
func RunTimeline(name string, rc RunConfig) (string, error) {
	rc.defaults()
	wl, err := workloads.ByName(name)
	if err != nil {
		return "", err
	}
	prof := wl.Profile()
	clock, cl, ctr := setup(wl, 0)
	cfg := nlConfig(prof, func() workloads.Workload {
		fresh, _ := workloads.ByName(name)
		return fresh
	}, rc)
	repl := core.NewReplicator(cl, ctr, cfg)
	repl.Timeline = &trace.Timeline{}
	repl.Start()
	if sv, ok := wl.(*workloads.Server); ok {
		sv.NewClients(cl, "10.0.0.10", rc.Clients, rc.Seed)
	}
	clock.RunFor(rc.Warmup + rc.Measure)
	repl.Stop()
	var b strings.Builder
	if err := repl.Timeline.WriteCSV(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Run dispatches by benchmark name.
func Run(name string, mode Mode, rc RunConfig) (RunResult, error) {
	switch name {
	case "swaptions":
		return RunBatch(workloads.Swaptions, mode, rc), nil
	case "streamcluster":
		return RunBatch(workloads.Streamcluster, mode, rc), nil
	case "redis":
		return RunServer(workloads.Redis, mode, rc), nil
	case "ssdb":
		return RunServer(workloads.SSDB, mode, rc), nil
	case "node":
		return RunServer(workloads.Node, mode, rc), nil
	case "lighttpd":
		return RunServer(workloads.Lighttpd, mode, rc), nil
	case "djcms":
		return RunServer(workloads.DJCMS, mode, rc), nil
	default:
		return RunResult{}, fmt.Errorf("harness: unknown benchmark %q", name)
	}
}

// Overhead computes the relative overhead of a replicated run against
// its stock baseline: throughput reduction for servers, execution-time
// increase for batch benchmarks (§VII-C).
func Overhead(stock, repl RunResult) float64 {
	if stock.Throughput > 0 {
		return 1 - repl.Throughput/stock.Throughput
	}
	if stock.Elapsed > 0 {
		return float64(repl.Elapsed)/float64(stock.Elapsed) - 1
	}
	return 0
}
