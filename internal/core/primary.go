package core

import (
	"nilicon/internal/container"
	"nilicon/internal/criu"
	"nilicon/internal/fifo"
	"nilicon/internal/metrics"
	"nilicon/internal/simkernel"
	"nilicon/internal/simtime"
	"nilicon/internal/trace"
)

// Replicator is the primary agent (§IV): it drives the epoch pipeline —
// execute, then block input, freeze and collect, resume, transfer,
// await the ack and release output (pipeline.go) — and sends
// heartbeats to the backup agent.
type Replicator struct {
	Cfg     Config
	Cluster *Cluster
	Ctr     *container.Container
	// Backup is chain[0].agent: the first slot's backup agent, the only
	// one of a classic pair.
	Backup *BackupAgent

	// chain holds the f+1 replica slots (chain.go); chain[0] runs over
	// the primary Cluster view, so the classic pair is the one-slot
	// chain.
	chain []*replicaSlot
	// externalArbiter suppresses per-replica self-promotion: an outside
	// control plane (the fleet detector) convicts the primary host and
	// picks exactly one slot to Recover, for a chain of any width.
	// Without it each replica self-promotes on its own staleness view.
	externalArbiter bool

	engine *criu.Engine
	epoch  uint64

	// inflight holds epochs whose pipeline has not yet released output
	// (with overlapped transfer, several can be in flight at once), in
	// epoch order.
	inflight fifo.Queue[*epochRun]

	// Epoch bookkeeping bound once (epochs.go): the runs waiting for
	// their thaw, submission and encoded-submission events, each queue
	// served by one callback in the order its events were scheduled; the
	// free lists of retired runs and per-replica image sends; and the
	// chunk-size buffer a submission fills (the scheduler copies it).
	thawQ, submitQ, encodedQ    fifo.Queue[*epochRun]
	thawFn, submitFn, encodedFn func()
	freeRuns                    []*epochRun
	freeSends                   []*imageSend
	chunks                      []int64

	// holders counts the chain replicas' shared page buffers, so only a
	// buffer's last store recycles it (DESIGN.md §8).
	holders *simkernel.PageHolders
	// recycleAtFirstRelease is the mutation the holder-count test
	// catches: a store recycles a superseded buffer whatever its
	// fellow holders.
	recycleAtFirstRelease bool

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
	// DeltaPages is enabled).
	encoder *criu.DeltaEncoder
	// submitFloor serializes transfer submissions: the replication thread
	// encodes and submits epochs one at a time, so an epoch whose encode
	// outlasts the epoch interval cannot be overtaken on the wire by its
	// successor (the backup would see a gap and NACK a healthy stream).
	submitFloor simtime.Time

	// Resyncs counts full resynchronizations triggered by lost epochs.
	Resyncs metrics.Counter

	// Timeline, when non-nil, receives one trace.EpochRecord per
	// steady-state epoch at its output release: the one per-epoch
	// measurement the paper tables, the timeline CSV and the benchmark
	// read (DESIGN.md §5).
	Timeline *trace.Timeline

	hbTicker *simtime.Ticker
	lastCPU  simtime.Duration

	// epochTimer starts the next epoch (runEpoch bound once).
	epochTimer *simtime.Timer

	// Lease arbitration state (lease.go, DESIGN.md §10). leaseExpiresAt
	// is the end of the newest grant's term measured from its send
	// time.
	leaseState     LeaseState
	leaseExpiresAt simtime.Time
	leaseTimer     *simtime.Timer
	unprotTimer    *simtime.Timer

	// SelfFences counts lease expirations that fenced this primary.
	SelfFences metrics.Counter
	// Unprotects counts Availability-policy unprotected declarations.
	Unprotects metrics.Counter

	// rec is the nondeterminism recorder (nil unless Opts.RecordReplay;
	// replay.go, DESIGN.md §12).
	rec *recorder
	// LogSegments counts the sealed nondeterminism-log segments;
	// LogCommitLatency samples seal → backup-ack latency per segment
	// (seconds).
	LogSegments      metrics.Counter
	LogCommitLatency metrics.Stream
}

// NewReplicator wires a replicator for the given protected container.
// The container must have been created with Cluster.NewProtectedContainer
// (its file system must sit on the cluster's DRBD primary end).
func NewReplicator(cl *Cluster, ctr *container.Container, cfg Config) *Replicator {
	if cfg.EpochInterval <= 0 {
		cfg.EpochInterval = 30 * simtime.Millisecond
	}
	r := &Replicator{Cfg: cfg, Cluster: cl, Ctr: ctr, holders: simkernel.NewPageHolders()}
	r.thawFn, r.submitFn, r.encodedFn = r.thawNext, r.submitNext, r.encodedNext
	r.epochTimer = simtime.NewTimer(cl.Clock, r.runEpoch)
	r.leaseTimer = simtime.NewTimer(cl.Clock, r.leaseExpired)
	r.unprotTimer = simtime.NewTimer(cl.Clock, r.unprotectDeadline)
	r.engine = criu.NewEngine(ctr, cfg.Opts.criuOptions())
	if cfg.Opts.DeltaPages {
		r.encoder = criu.NewDeltaEncoder()
	}
	if cfg.Opts.RecordReplay {
		r.rec = newRecorder(r)
	}
	r.Backup = newBackupAgent(cl, cfg, r)
	r.chain = []*replicaSlot{r.newSlot(0, cl, r.Backup)}
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
	r.Ctr.Qdisc.SetReplicating(true)
	if r.Cfg.Opts.PlugInput {
		r.Ctr.Qdisc.SetInputMode(plugBufferMode)
	} else {
		r.Ctr.Qdisc.SetInputMode(firewallDropMode)
	}
	r.Ctr.StartKeepAlive(heartbeatInterval)
	if r.rec != nil {
		// Install after the keep-alive process exists so recorded process
		// indexes match the checkpoint image's process order.
		r.rec.install()
	}
	r.Cluster.DRBDPrimary.SetEpoch(0)

	r.hbTicker = simtime.NewTicker(r.Cluster.Clock, heartbeatInterval, r.heartbeat)
	r.lastCPU = r.Ctr.Cgroup.CPUUsage()
	now := r.Cluster.Clock.Now()
	for _, s := range r.chain {
		s.lastBeat = now
	}
	r.startLease()
	for _, s := range r.chain {
		s.agent.start()
	}

	r.epochTimer.Reset(r.Cfg.EpochInterval)
}

// Stop ends replication cleanly (measurement teardown): buffered output
// is flushed and no further checkpoints are taken.
func (r *Replicator) Stop() {
	r.stopped = true
	r.running = false
	if r.hbTicker != nil {
		r.hbTicker.Stop()
	}
	r.epochTimer.Stop()
	r.cancelLeaseTimers()
	r.inflight.Reset()
	if r.rec != nil {
		r.rec.uninstall()
	}
	for _, s := range r.chain {
		s.agent.stop()
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
		s.view.ReplLink.TransferExpress(16, s.agent.heartbeatArrived)
	}
}

// runEpoch fires at an epoch boundary: it starts the epoch's pipeline
// run (epochRun.begin).
func (r *Replicator) runEpoch() {
	if r.stopped || r.quiesced {
		return
	}
	run := r.newRun(r.epoch)
	r.epoch++
	r.inflight.Push(run)
	run.begin()
}

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
		return 0
	}
	st := r.encoder.EncodeImage(run.img, r.ackedThrough, r.hasAcked)
	run.wireBytes = run.img.WireSizeBytes()
	run.frames = st
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

// ResetMeasurement clears the record/replay log measurements so later
// samples reflect steady state only. The epoch timeline needs no reset:
// its readers window it by each record's epoch start.
func (r *Replicator) ResetMeasurement() {
	r.LogSegments = metrics.Counter{}
	r.LogCommitLatency = metrics.Stream{}
}

// AckedThrough returns the cumulative-ack watermark: the newest epoch
// the backup has acknowledged (ok=false before the first ack). The
// watermark is monotonic for the lifetime of a replicator; fleet tests
// assert it never regresses while resync traffic from other pairs
// shares the replication NIC.
func (r *Replicator) AckedThrough() (uint64, bool) { return r.ackedThrough, r.hasAcked }

// Fenced reports whether every slot is fenced, the state only
// FenceBackup reaches (FenceReplica hands it the last slot).
func (r *Replicator) Fenced() bool { return r.lead() == nil }

// FenceBackup cuts every dead backup off from a healthy primary:
// replication stops, every slot's agent halts, and the primary leaves
// protection (unprotect) — the primary is the authoritative survivor,
// and nothing it produced depends on the lost backups, so releasing
// without a lease is safe. The container keeps running unprotected; the
// fleet control plane re-protects it via ReprotectOnto. To fence a
// subset of a chain while the survivors keep it protected, use
// FenceReplica (chain.go).
func (r *Replicator) FenceBackup() {
	if r.Fenced() {
		return
	}
	r.Stop()
	for _, s := range r.chain {
		s.fenced = true
		s.agent.Halt()
	}
	r.unprotect()
}

// InflightEpochs returns the number of epochs whose pipeline has not yet
// released output. During an outage this is the stalled backlog; after
// heal and quiesce it must drain to zero.
func (r *Replicator) InflightEpochs() int { return r.inflight.Len() }

// RetainedImageBytes returns the memory-page payload held by the
// checkpoint images of in-flight epochs. A run drops its image when the
// transfer is lost, so on an isolated primary this stays bounded by the
// images still queued on the link, however long the outage lasts.
func (r *Replicator) RetainedImageBytes() int64 {
	var n int64
	for _, run := range r.inflight.All() {
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
	r.epochTimer.Stop()
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
