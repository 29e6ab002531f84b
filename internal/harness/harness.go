// Package harness drives the experiments that regenerate every table and
// figure of the paper's evaluation (§VII). Each RunXxx function builds a
// fresh deterministic simulation, executes the experiment, and returns
// typed rows plus a rendered text table. The CLI (cmd/niliconctl) is a
// thin wrapper around this package; its TestCommittedOutputs pins every
// rendered table byte for byte.
package harness

import (
	"fmt"

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
	// Throughput is requests/second (server benchmarks).
	Throughput float64
	// Elapsed is the completion time (batch benchmarks).
	Elapsed simtime.Duration

	// Checkpoint statistics (virtual time, seconds / pages / bytes).
	StopMean, StopP10, StopP50, StopP90 float64
	StateP10, StateP50, StateP90        float64
	DirtyMean                           float64

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

	// Pipeline stage means (seconds; NiLiCon mode only): the transfer
	// and the end-to-end output commit (epoch boundary → output
	// released).
	TransferMean, CommitMean float64

	// Wire-format measurements (NiLiCon mode; DESIGN.md §8). WireMean is
	// the mean bytes actually sent per steady-state epoch — equal to the
	// mean state size unless the delta encoder compressed the stream.
	// CommitP99 is the 99th percentile of the end-to-end output-commit
	// latency (seconds). DeltaHit/DedupHit are the fractions of
	// transferred pages shipped as delta/zero frames and as dedup
	// references.
	WireMean           float64
	CommitP99          float64
	DeltaHit, DedupHit float64

	// Timeline is the run's per-epoch record (nil in Stock mode); every
	// checkpoint column above is derived from it by epochColumns.
	Timeline *trace.Timeline
}

// setup builds a cluster with the workload installed on a protected
// container.
func setup(wl workloads.Workload, cores int) (*simtime.Clock, *core.Cluster, *container.Container) {
	clock := simtime.NewClock()
	cl := core.NewShardedCluster(clock, core.ClusterParams{})
	if cores <= 0 {
		prof := wl.Profile()
		cores = prof.Procs * prof.ThreadsPer
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
	var res RunResult
	repl, mc := replicate(cl, ctr, prof, func() workloads.Workload { return mk() }, mode, rc, &res)

	clients := rc.Clients
	if clients <= 0 {
		clients = prof.Clients
	}
	set := wl.NewClients(cl, "10.0.0.10", clients, rc.Seed)

	clock.RunFor(rc.Warmup)
	set.BeginWindow()
	// Measure steady state: drop the initial synchronization and the
	// epochs queued behind its bulk transfer.
	start := clock.Now()
	runtimeAt := ctr.RuntimeOverhead
	busyAt := ctr.CPUBusy
	var backupAt simtime.Duration
	if repl != nil {
		backupAt = repl.Backup.CPUBusy
	}
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
		res.BackupUtil = (repl.Backup.CPUBusy - backupAt).Seconds() / wall
		epochColumns(&res, start, wall)
	case MC:
		mc.Stop()
		res.Epochs = mc.Epochs()
		epochColumns(&res, 0, wall)
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
	var res RunResult
	repl, mc := replicate(cl, ctr, prof, func() workloads.Workload { return mk() }, mode, rc, &res)

	start := clock.Now()
	var from simtime.Time // MC's records skip only the initial sync
	if repl != nil {
		// Let the initial synchronization and its queued epochs drain,
		// then measure steady state (the workload keeps executing, so the
		// elapsed time still covers the whole run).
		clock.RunFor(rc.Warmup)
		from = clock.Now()
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
		res.BackupUtil = repl.Backup.CPUBusy.Seconds() / wall
		epochColumns(&res, from, wall)
	case MC:
		mc.Stop()
		res.Epochs = mc.Epochs()
		epochColumns(&res, from, wall)
	}
	return res
}

// replicate attaches the mode's replicator to the protected container and
// starts it, recording every checkpoint into res.Timeline. Stock runs
// unreplicated and returns two nils.
func replicate(cl *core.Cluster, ctr *container.Container, prof workloads.Profile, fresh func() workloads.Workload, mode Mode, rc RunConfig, res *RunResult) (*core.Replicator, *remus.MC) {
	switch mode {
	case NiLiCon:
		repl := core.NewReplicator(cl, ctr, nlConfig(prof, fresh, rc))
		res.Timeline = &trace.Timeline{}
		repl.Timeline = res.Timeline
		repl.Start()
		return repl, nil
	case MC:
		mc := remus.New(cl, ctr, remus.Config{
			KernelDirtyPages:   prof.KernelDirtyPages,
			RuntimeTaxPerEpoch: prof.RuntimeTax + prof.MCExtraTax,
		})
		res.Timeline = &trace.Timeline{}
		mc.Timeline = res.Timeline
		mc.Start()
		return nil, mc
	}
	return nil, nil
}

// epochColumns computes every per-epoch column of res from its
// timeline. It counts a record when its epoch started at or after from,
// the run's measurement start (the window rule bench/layers.go uses):
// an epoch whose output was not released before the run stopped has no
// record and appears in no column. wall is the run's wall time, the
// denominator of StopFrac.
func epochColumns(res *RunResult, from simtime.Time, wall float64) {
	var stop, state, dirty, transfer, commit, wire metrics.Stream
	var frames, delta, dedup int
	for _, rec := range res.Timeline.Records() {
		if rec.At < from {
			continue
		}
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
	res.StopMean = stop.Mean()
	res.StopP10 = stop.Percentile(10)
	res.StopP50 = stop.Percentile(50)
	res.StopP90 = stop.Percentile(90)
	res.StateP10 = state.Percentile(10)
	res.StateP50 = state.Percentile(50)
	res.StateP90 = state.Percentile(90)
	res.DirtyMean = dirty.Mean()
	if wall > 0 {
		res.StopFrac = stop.Sum() / wall
	}
	res.TransferMean = transfer.Mean()
	res.CommitMean = commit.Mean()
	res.CommitP99 = commit.Percentile(99)
	res.WireMean = wire.Mean()
	if frames > 0 {
		res.DeltaHit = float64(delta) / float64(frames)
		res.DedupHit = float64(dedup) / float64(frames)
	}
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
