package core

import (
	"nilicon/internal/container"
	"nilicon/internal/criu"
	"nilicon/internal/metrics"
	"nilicon/internal/simtime"
	"nilicon/internal/trace"
)

// Replicator is the primary agent (§IV): it drives the epoch pipeline —
// execute, then BlockInput, FreezeCollect, Thaw, Transfer, AwaitAck,
// ReleaseOutput per the stage graph (stage.go) — and sends heartbeats to
// the backup agent.
type Replicator struct {
	Cfg     Config
	Cluster *Cluster
	Ctr     *container.Container
	Backup  *BackupAgent

	// chain holds the f+1 replica slots (chain.go); chain[0] wraps
	// Backup and the primary Cluster view, so the classic pair is the
	// one-slot chain. witness is the quorum-promotion arbiter
	// (witness.go; nil outside quorum mode).
	chain   []*replicaSlot
	witness *Witness
	// externalArbiter suppresses per-replica self-promotion: an outside
	// control plane (the fleet detector) convicts the primary host and
	// picks exactly one slot to Recover. Without it each replica of a
	// multi-slot chain would self-promote on its own staleness view.
	externalArbiter bool

	engine *criu.Engine
	epoch  uint64

	// inflight holds epochs whose pipeline has not yet released output
	// (with overlapped transfer, several can be in flight at once).
	inflight map[uint64]*epochRun

	running  bool
	stopped  bool
	quiesced bool

	// resyncArmed is set when the backup reports lost epochs (NACK) or a
	// transfer is dropped on the link; the next checkpoint is then a full
	// resynchronization baseline (full image, complete fs-cache dump,
	// disk snapshot).
	resyncArmed bool
	// resyncPending tracks an in-flight resync epoch: further NACKs are
	// ignored until it is acknowledged or its transfer is dropped.
	resyncPending  uint64
	resyncPendingB bool

	// released is the highest epoch whose output has been released.
	released    uint64
	hasReleased bool

	// ackedThrough is the cumulative-ack watermark: the newest epoch the
	// backup has acknowledged (and therefore committed, together with
	// everything below it). The delta encoder only uses pages last
	// shipped at or below this watermark as delta bases or dedup donors.
	ackedThrough uint64
	hasAcked     bool

	// encoder rewrites images into delta wire frames (nil unless
	// DeltaPages or BackupPageDedup is enabled).
	encoder *criu.DeltaEncoder
	// submitFloor serializes transfer submissions: the replication thread
	// encodes and submits epochs one at a time, so an epoch whose encode
	// outlasts the epoch interval cannot be overtaken on the wire by its
	// successor (the backup would see a gap and NACK a healthy stream).
	submitFloor simtime.Time

	// Resyncs counts full resynchronizations triggered by lost epochs.
	Resyncs metrics.Counter

	// Wire-format frame counters (DESIGN.md §8): how every transferred
	// page was encoded. With the encoder disabled all pages count as
	// full frames.
	FullFrames, DeltaFrames, ZeroFrames, DedupFrames metrics.Counter

	// Virtual-time measurements, aggregated by the harness into Tables
	// I, III and IV.
	StopTimes    metrics.Stream // seconds
	StateBytes   metrics.Stream // bytes (logical state size)
	BytesOnWire  metrics.Stream // bytes actually sent per epoch
	DirtyPages   metrics.Stream // pages
	FreezeWaits  metrics.Stream // seconds
	SockCollects metrics.Stream // seconds
	ThreadColls  metrics.Stream // seconds
	MemCopies    metrics.Stream // seconds
	VMACollects  metrics.Stream // seconds

	// StageTimes holds one stream per pipeline stage (seconds), sampled
	// once per epoch when the epoch's output is released.
	StageTimes [NumStages]metrics.Stream

	// LastStats is the most recent checkpoint's breakdown.
	LastStats criu.CheckpointStats

	// Timeline, when non-nil, records a per-epoch time series
	// (niliconctl timeline).
	Timeline *trace.Timeline

	// ReplStart marks when replication began (for utilization math).
	ReplStart simtime.Time

	hbTicker *simtime.Ticker
	lastCPU  simtime.Duration

	// lastBackupBeat is when the backup's most recent reverse liveness
	// beat arrived (Config.BackupBeat); the fleet control plane reads it
	// to detect backup-host loss.
	lastBackupBeat simtime.Time
	// fenced marks a replicator whose backup was declared dead and cut
	// off (FenceBackup): the pair runs unprotected until re-protected.
	fenced bool

	epochEvent *simtime.Event

	// Lease arbitration state (lease.go, DESIGN.md §10). leaseExpiresAt
	// is the end of the newest grant's term measured from its send
	// time; parked holds ack-authorized pipeline releases held back by
	// a self-fence, flushed in epoch order on re-grant.
	leaseState      LeaseState
	leaseExpiresAt  simtime.Time
	leaseEvent      *simtime.Event
	unprotEvent     *simtime.Event
	parked          []*epochRun
	parkedDirect    uint64
	hasParkedDirect bool

	// LeaseGauge mirrors leaseState for the metrics layer.
	LeaseGauge metrics.Gauge
	// SelfFences counts lease expirations that fenced this primary.
	SelfFences metrics.Counter
	// Unprotects counts Availability-policy unprotected declarations.
	Unprotects metrics.Counter

	// rec is the nondeterminism recorder (nil unless Opts.RecordReplay;
	// replay.go, DESIGN.md §12).
	rec *recorder
	// LogSegments / LogEvents / LogWireBytes count the sealed
	// nondeterminism-log segments, their recorded events, and their
	// bytes on the replication link; LogCommitLatency samples seal →
	// backup-ack latency per segment (seconds).
	LogSegments, LogEvents, LogWireBytes metrics.Counter
	LogCommitLatency                     metrics.Stream
}

// NewReplicator wires a replicator for the given protected container.
// The container must have been created with Cluster.NewProtectedContainer
// (its file system must sit on the cluster's DRBD primary end).
func NewReplicator(cl *Cluster, ctr *container.Container, cfg Config) *Replicator {
	if cfg.EpochInterval <= 0 {
		cfg.EpochInterval = 30 * simtime.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 30 * simtime.Millisecond
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 3
	}
	if cfg.Lease.Enabled {
		cfg.Lease.fillDefaults()
	}
	r := &Replicator{Cfg: cfg, Cluster: cl, Ctr: ctr, inflight: make(map[uint64]*epochRun)}
	r.engine = criu.NewEngine(ctr, cfg.Opts.criuOptions())
	if cfg.Opts.DeltaPages || cfg.Opts.BackupPageDedup {
		r.encoder = criu.NewDeltaEncoder(cfg.Opts.DeltaPages, cfg.Opts.BackupPageDedup)
	}
	if cfg.Opts.RecordReplay {
		r.rec = newRecorder(r)
	}
	r.Backup = newBackupAgent(cl, cfg, r)
	r.chain = []*replicaSlot{{view: cl, agent: r.Backup}}
	return r
}

// Start begins replication: output buffering turns on, the keep-alive
// process starts, heartbeats flow, and the first (full) checkpoint is
// taken after one epoch interval.
func (r *Replicator) Start() {
	if r.running {
		return
	}
	r.running = true
	r.ReplStart = r.Cluster.Clock.Now()
	r.Ctr.Qdisc.SetReplicating(true)
	if r.Cfg.Opts.PlugInput {
		r.Ctr.Qdisc.SetInputMode(plugBufferMode)
	} else {
		r.Ctr.Qdisc.SetInputMode(firewallDropMode)
	}
	if r.Cfg.KeepAlive {
		r.Ctr.StartKeepAlive(r.Cfg.HeartbeatInterval)
	}
	if r.rec != nil {
		// Install after the keep-alive process exists so recorded process
		// indexes match the checkpoint image's process order.
		r.rec.install()
	}
	r.Cluster.DRBDPrimary.SetEpoch(0)

	r.hbTicker = simtime.NewTicker(r.Cluster.Clock, r.Cfg.HeartbeatInterval, r.heartbeat)
	r.lastCPU = r.Ctr.Cgroup.CPUUsage()
	r.lastBackupBeat = r.Cluster.Clock.Now()
	for _, s := range r.chain {
		s.lastBeat = r.lastBackupBeat
	}
	r.startLease()
	r.Backup.start()
	for _, s := range r.chain[1:] {
		s.agent.start()
	}
	if r.witness != nil {
		r.witness.start()
	}

	r.epochEvent = r.Cluster.Clock.Schedule(r.Cfg.EpochInterval, r.runEpoch)
}

// Stop ends replication cleanly (measurement teardown): buffered output
// is flushed and no further checkpoints are taken.
func (r *Replicator) Stop() {
	r.stopped = true
	r.running = false
	if r.hbTicker != nil {
		r.hbTicker.Stop()
	}
	if r.epochEvent != nil {
		r.epochEvent.Cancel()
	}
	r.cancelLeaseTimers()
	r.inflight = make(map[uint64]*epochRun)
	r.parked = nil
	r.hasParkedDirect = false
	if r.rec != nil {
		r.rec.uninstall()
	}
	r.Backup.stop()
	for _, s := range r.chain[1:] {
		s.agent.stop()
	}
	if r.witness != nil {
		r.witness.stop()
	}
	r.Ctr.Qdisc.SetReplicating(false)
	r.engine.Close()
}

// Epochs returns how many checkpoints have been taken.
func (r *Replicator) Epochs() uint64 { return r.epoch }

// heartbeat sends a heartbeat if the container made progress since the
// last tick (cpuacct increased) or is intentionally frozen by our own
// checkpoint (the agent knows it is healthy; without this, long stop
// phases would starve the heartbeat).
func (r *Replicator) heartbeat() {
	if r.stopped {
		return
	}
	cpu := r.Ctr.Cgroup.CPUUsage()
	progressed := cpu > r.lastCPU
	r.lastCPU = cpu
	if !progressed && !r.Ctr.Frozen() {
		return
	}
	// Heartbeats are individual packets; they interleave with any bulk
	// state transfer in progress rather than queueing behind it. Each
	// chain replica is beaten over its own replication link.
	for _, s := range r.chain {
		if s.fenced {
			continue
		}
		ag := s.agent
		s.view.ReplLink.TransferExpress(16, func() { ag.heartbeatArrived() })
	}
	if r.witness != nil {
		r.witness.primaryKeepAlive()
	}
}

// runEpoch fires at an epoch boundary. It is a thin driver: it creates
// the epoch's pipeline run and lets the stage graph decide what executes
// when — which stages overlap container execution is a property of the
// configuration's dependency edges, not of this function's shape.
func (r *Replicator) runEpoch() {
	if r.stopped || r.quiesced {
		return
	}
	run := &epochRun{
		r:       r,
		epoch:   r.epoch,
		deps:    r.Cfg.Opts.stageGraph(),
		startAt: r.Cluster.Clock.Now(),
	}
	r.epoch++
	r.inflight[run.epoch] = run
	run.advance()
}

// ackReceived records an acknowledgment of epoch e from the first
// (slot 0) backup. Acks are cumulative: the backup commits in epoch
// order, so an ack for e vouches for every epoch <= e — this is what
// lets a single post-resync ack retire the pipeline runs of all the
// epochs that were lost on the link (their own acks never existed).
// The chain layer (chain.go) generalizes this to per-replica
// watermarks; ackReceivedFrom is the per-slot entry point.
func (r *Replicator) ackReceived(e uint64) { r.ackReceivedFrom(0, e) }

// nackReceived is called when the backup reports an out-of-order epoch
// (it missed one or more images to a link outage): arm a full
// resynchronization at the next epoch boundary. Repeat NACKs while a
// resync is already armed or in flight are ignored — the backup re-sends
// its NACK on every detector tick until the baseline lands.
func (r *Replicator) nackReceived() {
	if r.stopped || r.quiesced || r.resyncArmed || r.resyncPendingB {
		return
	}
	r.resyncArmed = true
}

// encodeForWire rewrites the epoch's image into wire frames against the
// cumulative-ack watermark, records the run's wire size and frame mix,
// and returns the virtual-time CPU cost of the encoding (hashing every
// dirty page plus the diff/verify scans). With no encoder configured the
// image ships verbatim at zero extra cost.
func (r *Replicator) encodeForWire(run *epochRun) simtime.Duration {
	if r.encoder == nil {
		run.wireBytes = run.img.WireSizeBytes()
		run.frames.FullFrames = run.img.DirtyPages()
		r.FullFrames.Add(int64(run.frames.FullFrames))
		return 0
	}
	st := r.encoder.EncodeImage(run.img, r.ackedThrough, r.hasAcked)
	run.wireBytes = run.img.WireSizeBytes()
	run.frames = st
	r.FullFrames.Add(int64(st.FullFrames))
	r.DeltaFrames.Add(int64(st.DeltaFrames))
	r.ZeroFrames.Add(int64(st.ZeroFrames))
	r.DedupFrames.Add(int64(st.DedupFrames))
	if run.img.Full {
		// A full image (initial sync, resync baseline) is pure full/zero
		// frames; its hashing pipelines with the bulk stream chunk by chunk
		// instead of delaying the submission of a transfer that dwarfs it.
		return 0
	}
	c := r.Ctr.Host.Kernel.Costs
	return simtime.Duration(st.HashedPages)*c.PageHash +
		simtime.Duration(st.DiffedPages)*c.PageDiff
}

// ResetMeasurement clears the per-epoch measurement streams and frame
// counters so subsequent samples reflect steady state only: the harness
// calls it at the end of its warmup window, excluding the one-time
// initial synchronization and the epochs queued behind its bulk
// transfer (the paper's tables report steady-state checkpoints).
// Protocol state — epoch numbers, the ack watermark, the delta
// encoder's bases, resync counters — is untouched.
func (r *Replicator) ResetMeasurement() {
	r.StopTimes = metrics.Stream{}
	r.StateBytes = metrics.Stream{}
	r.BytesOnWire = metrics.Stream{}
	r.DirtyPages = metrics.Stream{}
	r.FreezeWaits = metrics.Stream{}
	r.SockCollects = metrics.Stream{}
	r.ThreadColls = metrics.Stream{}
	r.MemCopies = metrics.Stream{}
	r.VMACollects = metrics.Stream{}
	for s := Stage(0); s < NumStages; s++ {
		r.StageTimes[s] = metrics.Stream{}
	}
	r.FullFrames = metrics.Counter{}
	r.DeltaFrames = metrics.Counter{}
	r.ZeroFrames = metrics.Counter{}
	r.DedupFrames = metrics.Counter{}
	r.LogSegments = metrics.Counter{}
	r.LogEvents = metrics.Counter{}
	r.LogWireBytes = metrics.Counter{}
	r.LogCommitLatency = metrics.Stream{}
}

// DeltaHitRate returns the fraction of transferred pages that shipped
// compressed by the delta path (XOR patches and zero-page elisions).
func (r *Replicator) DeltaHitRate() float64 {
	total := r.FullFrames.Value() + r.DeltaFrames.Value() +
		r.ZeroFrames.Value() + r.DedupFrames.Value()
	if total == 0 {
		return 0
	}
	return float64(r.DeltaFrames.Value()+r.ZeroFrames.Value()) / float64(total)
}

// DedupHitRate returns the fraction of transferred pages that shipped as
// dedup references to an identical committed page.
func (r *Replicator) DedupHitRate() float64 {
	total := r.FullFrames.Value() + r.DeltaFrames.Value() +
		r.ZeroFrames.Value() + r.DedupFrames.Value()
	if total == 0 {
		return 0
	}
	return float64(r.DedupFrames.Value()) / float64(total)
}

// AckedThrough returns the cumulative-ack watermark: the newest epoch
// the backup has acknowledged (ok=false before the first ack). The
// watermark is monotonic for the lifetime of a replicator; fleet tests
// assert it never regresses while resync traffic from other pairs
// shares the replication NIC.
func (r *Replicator) AckedThrough() (uint64, bool) { return r.ackedThrough, r.hasAcked }

// backupBeatSeen records the arrival of slot 0's reverse liveness beat
// (chain slots route through backupBeatSeenFrom in chain.go).
func (r *Replicator) backupBeatSeen() { r.backupBeatSeenFrom(0) }

// LastBackupBeat returns when the backup's most recent reverse beat
// arrived (only meaningful with Config.BackupBeat).
func (r *Replicator) LastBackupBeat() simtime.Time { return r.lastBackupBeat }

// Fenced reports whether FenceBackup has run.
func (r *Replicator) Fenced() bool { return r.fenced }

// FenceBackup cuts every dead backup off from a healthy primary:
// replication stops, buffered output is flushed (the primary is the
// authoritative survivor — nothing it produced depends on the lost
// backups), the DRBD primary end detaches so disk writes stay local,
// and all queued transfer traffic is cancelled so it cannot occupy the
// shared replication NIC. The container keeps running unprotected; the
// fleet control plane re-protects it via ReprotectOnto. To fence a
// subset of a chain while the survivors keep it protected, use
// FenceReplica (chain.go).
func (r *Replicator) FenceBackup() {
	if r.fenced {
		return
	}
	r.fenced = true
	r.Stop()
	for _, s := range r.chain {
		s.fenced = true
		s.agent.Halt()
	}
	_ = r.Cluster.DRBDPrimary.Detach()
	for _, s := range r.chain {
		s.view.Xfer.CancelFlow(r.flowFor(s.idx))
		s.view.Xfer.CancelFlow(r.flowFor(s.idx) + "/resync")
		s.view.Xfer.CancelFlow(r.flowFor(s.idx) + "/log")
	}
	if r.Cfg.Lease.Enabled {
		// Control-plane-sanctioned unprotected operation: the backups are
		// verifiably dead, so releasing without a lease is safe.
		r.setLeaseState(LeaseUnprotected)
	}
}

// InflightEpochs returns the number of epochs whose pipeline has not yet
// released output. During an outage this is the stalled backlog; after
// heal and quiesce it must drain to zero.
func (r *Replicator) InflightEpochs() int { return len(r.inflight) }

// RetainedImageBytes returns the memory-page payload held by the
// checkpoint images of in-flight epochs. A run drops its image when the
// transfer is lost, so on an isolated primary this stays bounded by the
// images still queued on the link, however long the outage lasts.
func (r *Replicator) RetainedImageBytes() int64 {
	var n int64
	for _, run := range r.inflight {
		if run.img != nil {
			n += run.img.PayloadBytes()
		}
	}
	return n
}

// ReleasedEpoch returns the highest epoch whose buffered output has been
// released to clients.
func (r *Replicator) ReleasedEpoch() (uint64, bool) { return r.released, r.hasReleased }

// Quiesce stops starting new epochs while leaving everything else —
// in-flight transfers, acks, heartbeats, the backup — running. The chaos
// engine uses this to let the pipeline drain and then assert that
// nothing is retained.
func (r *Replicator) Quiesce() {
	r.quiesced = true
	if r.epochEvent != nil {
		r.epochEvent.Cancel()
	}
}

// applyRuntimeTax steals the configured runtime-overhead time from the
// middle of the execution phase (the container briefly pauses, modeling
// tracking costs not tied to individual page writes). extra adds this
// epoch's copy-on-write cost when the transfer is pipelined.
func (r *Replicator) applyRuntimeTax(extra simtime.Duration) {
	tax := r.Cfg.RuntimeTaxPerEpoch + extra
	if tax <= 0 {
		return
	}
	r.Cluster.Clock.Schedule(r.Cfg.EpochInterval/2, func() {
		if r.stopped || r.Ctr.Frozen() || r.Ctr.Stopped() {
			return
		}
		r.Ctr.Freeze()
		r.Ctr.RuntimeOverhead += tax
		r.Cluster.Clock.Schedule(tax, func() {
			if !r.stopped {
				r.Ctr.Thaw()
			}
		})
	})
}
