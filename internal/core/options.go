// Package core implements NiLiCon itself: the primary and backup agents
// that coordinate epoch-based container replication (§IV), all of the
// §V optimizations as switchable configuration, the heartbeat failure
// detector, and failover/recovery. It is the paper's primary
// contribution; everything it builds on lives in the substrate packages
// (simkernel, simnet, simdisk, simfs, container, criu).
package core

import (
	"nilicon/internal/criu"
	"nilicon/internal/simtime"
)

// OptSet selects which of NiLiCon's optimizations are active. Each field
// corresponds to a row of Table I; BasicOpts with rows enabled
// cumulatively reproduces the optimization ladder.
type OptSet struct {
	// OptimizeCRIU bundles the §V-A CRIU optimizations: a persistent
	// checkpointing agent instead of a forked CRIU process per epoch,
	// polling instead of the 100 ms freeze sleep, removal of the proxy
	// processes, and the radix-tree page store at the backup.
	OptimizeCRIU bool
	// CacheInfrequent caches rarely-modified in-kernel state, using the
	// ftrace tracker for invalidation (§V-B).
	CacheInfrequent bool
	// PlugInput blocks network input with the sch_plug buffering module
	// (43 µs) instead of firewall rules (7 ms + dropped SYNs) (§V-C).
	PlugInput bool
	// NetlinkVMA obtains VMA information via the task-diag netlink patch
	// instead of /proc/pid/smaps (§V-D).
	NetlinkVMA bool
	// StagingBuffer copies dirty pages to a local staging buffer so the
	// container resumes before the transfer to the backup completes
	// (§V-D).
	StagingBuffer bool
	// SharedMemPages transfers dirty pages from the parasite via shared
	// memory instead of a pipe (§V-D).
	SharedMemPages bool
	// RepairRTOPatch sets the minimum TCP retransmission timeout for
	// sockets leaving repair mode (§V-E). It affects only recovery
	// latency, not normal-operation overhead.
	RepairRTOPatch bool
	// PipelinedTransfer overlaps epoch k's state transfer with epoch
	// k+1's execution, HyCoR-style: dirty pages are write-protected
	// instead of copied during the stop, the container resumes at the end
	// of collection, and the image streams to the backup from the
	// CoW-protected pages while the container runs (paying a small
	// copy-on-write runtime tax for re-dirtied pages). Output release is
	// still strictly gated on the backup's acknowledgment: only the ack
	// watermark releases output, whatever the options. This goes beyond
	// the paper's Table I ladder and is therefore not part of AllOpts.
	PipelinedTransfer bool
	// DeltaPages delta-compresses the replication stream (DESIGN.md §8):
	// each dirty page ships as the cheapest of four frames. An all-zero
	// page is elided; a page identical to a committed one (in any VMA or
	// process) ships as a reference to that donor's store key, which the
	// primary byte-verifies and the backup hash-verifies; a page with a
	// committed previous copy ships as a sparse XOR patch against it; any
	// other page ships verbatim. A delta base or dedup donor must be
	// covered by the backup's cumulative ack, so every page after a
	// NACK-triggered full resynchronization ships full until the baseline
	// is re-acked and a frame can never apply against a stale base.
	// Beyond the Table I ladder; not part of AllOpts.
	DeltaPages bool
	// RecordReplay enables HyCoR-mode record/replay (DESIGN.md §12): the
	// primary records all nondeterminism between checkpoints — network
	// input arrival order and payloads — into small log segments
	// streamed to the backup next to page traffic, and output release
	// gates on log-segment commit (microseconds of data) instead of
	// epoch page-transfer commit. On
	// failover the backup restores the last committed checkpoint and
	// deterministically replays the committed log suffix. Composes with
	// the lease layer unchanged: a fenced primary holds segment releases
	// exactly as it holds epoch releases. Beyond the Table I ladder; not
	// part of AllOpts.
	RecordReplay bool
}

// overlapsTransfer reports whether the container resumes at the end of
// the pause, before its image has reached the backup (StagingBuffer or
// PipelinedTransfer). Otherwise the run is stop-and-copy: the container
// stays frozen until the lead's transfer ends (§V-D deficiency (2)).
// It is the epoch pipeline's one fork (pipeline.go).
func (o OptSet) overlapsTransfer() bool { return o.StagingBuffer || o.PipelinedTransfer }

// AllOpts returns the fully optimized NiLiCon configuration.
func AllOpts() OptSet {
	return OptSet{
		OptimizeCRIU:    true,
		CacheInfrequent: true,
		PlugInput:       true,
		NetlinkVMA:      true,
		StagingBuffer:   true,
		SharedMemPages:  true,
		RepairRTOPatch:  true,
	}
}

// BasicOpts returns the unoptimized basic implementation (§IV).
func BasicOpts() OptSet { return OptSet{} }

// PipelinedOpts returns the fully optimized configuration plus the
// overlapped (pipelined) state transfer, which is not part of the
// paper's Table I ladder.
func PipelinedOpts() OptSet {
	o := AllOpts()
	o.PipelinedTransfer = true
	return o
}

// DeltaOpts returns the fully optimized configuration plus the
// delta-compressed replication stream (zero elision, page dedup, XOR
// page deltas), which shrinks the bytes on the wire beyond the paper's
// Table I ladder.
func DeltaOpts() OptSet {
	o := AllOpts()
	o.DeltaPages = true
	return o
}

// ReplayOpts returns the pipelined configuration plus HyCoR-mode
// record/replay: output release gated on nondeterminism-log commit
// rather than epoch page-transfer commit, with deterministic replay of
// the committed log suffix on failover.
func ReplayOpts() OptSet {
	o := PipelinedOpts()
	o.RecordReplay = true
	return o
}

// LadderStep names one cumulative row of Table I.
type LadderStep struct {
	Name string
	Opts OptSet
}

// Table1Ladder returns the cumulative optimization ladder exactly as in
// Table I.
func Table1Ladder() []LadderStep {
	steps := []struct {
		name  string
		apply func(*OptSet)
	}{
		{"Basic implementation", func(*OptSet) {}},
		{"+ Optimize CRIU", func(o *OptSet) { o.OptimizeCRIU = true }},
		{"+ Cache infrequently-modified state", func(o *OptSet) { o.CacheInfrequent = true }},
		{"+ Optimize blocking network input", func(o *OptSet) { o.PlugInput = true }},
		{"+ Obtain VMAs from netlink", func(o *OptSet) { o.NetlinkVMA = true }},
		{"+ Add memory staging buffer", func(o *OptSet) { o.StagingBuffer = true }},
		{"+ Transfer dirty pages via shared memory", func(o *OptSet) { o.SharedMemPages = true }},
	}
	var out []LadderStep
	cur := BasicOpts()
	for _, s := range steps {
		s.apply(&cur)
		out = append(out, LadderStep{Name: s.name, Opts: cur})
	}
	return out
}

// criuOptions maps the option set onto the checkpoint engine's flags.
func (o OptSet) criuOptions() criu.Options {
	return criu.Options{
		FreezePoll:      o.OptimizeCRIU,
		NetlinkVMA:      o.NetlinkVMA,
		SharedMemPages:  o.SharedMemPages,
		CacheInfrequent: o.CacheInfrequent,
	}
}

// Failure detection uses the paper's fixed parameters (§IV): a
// heartbeat every 30 ms, and recovery after three consecutive misses.
// They are not configurable: the lease timeline (lease.go) is sized
// against DetectionDeadline, and the safety argument of DESIGN.md §10
// holds only for that pairing.
const (
	heartbeatInterval = 30 * simtime.Millisecond
	heartbeatMisses   = 3
	// DetectionDeadline is how long a peer may stay silent before a
	// detector convicts it (90 ms): the per-pair backup detector and the
	// fleet's host detector use this one value.
	DetectionDeadline = heartbeatMisses * heartbeatInterval
)

// Config parameterizes a Replicator.
type Config struct {
	// EpochInterval is the execution phase length (30 ms in the paper;
	// zero takes it). Every run uses the paper's value; the field stays
	// because the benchmark reads it from DefaultConfig.
	EpochInterval simtime.Duration
	// Opts selects the active optimizations.
	Opts OptSet
	// Lease enables output-release lease arbitration (DESIGN.md §10):
	// the backup grants the primary a time-bounded right to release
	// buffered output, renewed implicitly by acks and backup beats;
	// the primary self-fences on expiry before the backup may promote.
	// Disabled by default so the paper's timing experiments (Table II
	// detection latency in particular) are unchanged. Enabling the
	// lease also makes the backup send beats (they carry the grants).
	Lease LeaseConfig
	// Degrade selects what a self-fenced primary does when the outage
	// persists: StrictSafety (default) stays fenced; Availability
	// declares the pair unprotected after unprotectedAfter (1 s) and
	// resumes serving without acks.
	Degrade DegradePolicy

	// ExtraStopPerCheckpoint is the calibrated residual stop-time cost
	// of in-kernel state the simulation does not model structurally
	// (epoll sets, pipes, allocator arenas; see DESIGN.md §1 and the
	// workload profiles). Zero for non-calibrated runs.
	ExtraStopPerCheckpoint simtime.Duration
	// RuntimeTaxPerEpoch models per-epoch runtime overhead beyond
	// dirty-page tracking (write-protect faults on cache pages, CoW):
	// the container loses this much execution time mid-epoch.
	RuntimeTaxPerEpoch simtime.Duration

	// Reattach rebuilds the workload on a restored container from the
	// checkpointed application state. Required for failover to resume
	// service.
	Reattach func(ctr RestoredContainer, appState any)
	// OnRecovered fires when recovery completes (network live).
	OnRecovered func(ctr RestoredContainer, stats RecoveryStats)
}

// DefaultConfig returns the paper's parameters with all optimizations.
func DefaultConfig() Config {
	return Config{
		EpochInterval: 30 * simtime.Millisecond,
		Opts:          AllOpts(),
	}
}
