package core

// HyCoR-mode record/replay (DESIGN.md §12). With Opts.RecordReplay the
// primary records every source of nondeterminism the simulation owns —
// network input arrival order and payloads — into an append-only log
// cut into small segments. Segments stream to
// the backup on their own TransferScheduler flow (ctrID+"/log"),
// scheduled fairly against the pair's page traffic, and output release
// gates on *segment* commit: the egress buffered while a segment was
// open flushes when the backup's cumulative log acknowledgment covers
// the segment. A segment is microseconds of data,
// so the client-visible release latency drops from an epoch-commit
// round trip (tens of milliseconds) to roughly the link latency.
//
// The epoch pipeline is unchanged except that its release stage no
// longer touches the qdisc — checkpoints are the recovery baseline and
// the log-truncation mechanism, not the output gate. A checkpoint's
// commit implicitly commits every segment sealed before its freeze
// (Image.LogSeqThrough), which is what retires segments lost on the
// wire: the page resync path re-ships execution the lost segments
// described.
//
// On failover the backup restores the last committed checkpoint,
// reattaches the workload, and replays the contiguously received log
// suffix: the recorded ingress packets are delivered to the restored
// stack in arrival order. Handlers run synchronously, so
// the replay regenerates the exact egress the primary released; the
// per-segment egress digest is the divergence oracle.
//
// The lease layer composes unchanged: a self-fenced primary holds the
// log release below its ack watermark exactly as it holds epoch
// releases (logRecompute), and the unfence releases both in order.

import (
	"nilicon/internal/container"
	"nilicon/internal/criu"
	"nilicon/internal/pool"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

const (
	// logSealDelay is the coalescing window after the first recorded
	// event before the open segment seals and streams: long enough to
	// batch one request's burst, short next to the link latency that
	// dominates commit time.
	logSealDelay = 100 * simtime.Microsecond
	// logRetransmitDelay is the deterministic retry interval for a
	// segment lost to a link cut. Unlike lost page epochs (which NACK
	// into a full resync), log segments are self-contained and simply
	// retransmit until acked or retired by a checkpoint commit.
	logRetransmitDelay = 10 * simtime.Millisecond
)

// recorder is the primary-side nondeterminism recorder: it owns the open
// segment, seals and streams segments, and gates output release on the
// backup's cumulative log acknowledgment.
type recorder struct {
	r *Replicator

	// Open-segment accumulators. Digests restart at every seal.
	events       []criu.LogEvent
	egressDigest uint64
	egressBytes  int64
	schedSteps   uint64

	// nextSeq is the sequence the next sealed segment gets (1-based).
	nextSeq uint64

	// sealTimer closes the open segment logSealDelay after the first
	// event of a burst (seal bound once).
	sealTimer *simtime.Timer

	// sealedThrough is the highest sealed sequence — the LogSeqThrough
	// watermark stamped into the next checkpoint. sealedAtEpoch remembers
	// the watermark at each epoch's freeze so a later epoch ack can
	// retire segments whose own transfer (or ack) was lost.
	sealedThrough uint64
	sealedAtEpoch map[uint64]uint64

	// retained lists the sealed segments not yet acknowledged, in seq
	// order: segment numbers are contiguous, so an ack retires a
	// prefix. Their seal times feed the commit-latency stream. (A lost
	// segment's retransmission holds the segment itself.)
	retained []sealedSeg

	// acked is the cumulative backup acknowledgment watermark; released
	// the highest sequence whose egress buffer was flushed. Under a lease
	// fence released lags acked; the unfence releases the difference.
	acked    uint64
	released uint64

	// sends recycles per-replica segment sends.
	sends pool.Free[logSend]
}

// sealedSeg is a sealed segment awaiting its acknowledgment.
type sealedSeg struct {
	seq      uint64
	sealedAt simtime.Time
}

// retire drops the retained segments with seq <= m, adding each one's
// seal-to-ack latency to the commit-latency stream in seq order.
func (rec *recorder) retire(m uint64, now simtime.Time) {
	n := 0
	for n < len(rec.retained) && rec.retained[n].seq <= m {
		rec.r.LogCommitLatency.Add(now.Sub(rec.retained[n].sealedAt).Seconds())
		n++
	}
	if n == 0 {
		return
	}
	rec.retained = rec.retained[:copy(rec.retained, rec.retained[n:])]
}

func newRecorder(r *Replicator) *recorder {
	rec := &recorder{
		r:             r,
		nextSeq:       1,
		sealedAtEpoch: make(map[uint64]uint64),
		egressDigest:  criu.DigestInit(),
	}
	rec.sealTimer = simtime.NewTimer(r.Cluster.Clock, rec.seal)
	rec.sends = pool.New(func() *logSend {
		ls := &logSend{rec: rec}
		ls.deliveredFn, ls.droppedFn, ls.retryFn = ls.delivered, ls.dropped, ls.retry
		return ls
	})
	return rec
}

// install wires the capture hooks into the protected container. Hooks
// observe container-local events only, so recording never perturbs the
// deterministic schedule.
func (rec *recorder) install() {
	ctr := rec.r.Ctr
	ctr.Qdisc.OnDeliver = rec.onIngress
	ctr.Stack.OnAppSend = rec.onAppSend
	ctr.OnTaskStep = rec.onTaskStep
}

// uninstall removes the capture hooks (replication teardown).
func (rec *recorder) uninstall() {
	ctr := rec.r.Ctr
	ctr.Qdisc.OnDeliver = nil
	ctr.Stack.OnAppSend = nil
	ctr.OnTaskStep = nil
	rec.sealTimer.Stop()
}

func (rec *recorder) onIngress(pkt *simnet.Packet) {
	rec.events = append(rec.events, criu.LogEvent{Packet: *pkt})
	rec.noteActivity()
}

func (rec *recorder) onAppSend(_ *simnet.Socket, data []byte) {
	rec.egressDigest = criu.DigestBytes(rec.egressDigest, data)
	rec.egressBytes += int64(len(data))
	rec.noteActivity()
}

// onTaskStep counts the open segment's scheduling quanta. Steps never
// trigger a seal on their own — they happen continuously and carry no
// releasable output.
func (rec *recorder) onTaskStep() {
	rec.schedSteps++
}

// noteActivity arms the coalescing seal timer on the first event of a
// burst.
func (rec *recorder) noteActivity() {
	if !rec.sealTimer.Armed() {
		rec.sealTimer.Reset(logSealDelay)
	}
}

// seal closes the open segment, rotates the qdisc's egress buffer under
// the segment's sequence (release is keyed by sequence in replay mode),
// and streams the segment to the backup. Sealing with nothing recorded
// is a no-op.
func (rec *recorder) seal() {
	if len(rec.events) == 0 && rec.egressBytes == 0 {
		return
	}
	seg := &criu.LogSegment{
		Seq:          rec.nextSeq,
		Events:       rec.events,
		EgressDigest: rec.egressDigest,
		EgressBytes:  rec.egressBytes,
		SchedSteps:   rec.schedSteps,
	}
	// The segment keeps the slice; the next one starts at this one's
	// length instead of regrowing from nil.
	rec.events = make([]criu.LogEvent, 0, len(seg.Events))
	rec.egressDigest = criu.DigestInit()
	rec.egressBytes = 0
	rec.schedSteps = 0
	rec.nextSeq++
	rec.sealedThrough = seg.Seq
	r := rec.r
	rec.retained = append(rec.retained, sealedSeg{seq: seg.Seq, sealedAt: r.Cluster.Clock.Now()})
	r.LogSegments.Inc()
	r.Ctr.Qdisc.Rotate(seg.Seq)
	rec.submit(seg)
}

// epochBoundary seals the open segment at epoch e's freeze point (the
// container is frozen, so the cut is exact) and returns the watermark
// the checkpoint stamps as LogSeqThrough. Records made after this
// boundary belong to epoch e+1.
func (rec *recorder) epochBoundary(epoch uint64) uint64 {
	rec.sealTimer.Stop()
	rec.seal()
	rec.sealedAtEpoch[epoch] = rec.sealedThrough
	return rec.sealedThrough
}

// submit streams one segment on each chain replica's log flow. The
// flows share each view's TransferScheduler round-robin with the page
// traffic, so a tiny segment is never stuck behind a full
// resynchronization. The segment object is shared read-only across
// slots; only one replica ever replays a given log generation.
func (rec *recorder) submit(seg *criu.LogSegment) {
	for _, s := range rec.r.chain {
		if !s.live() {
			continue
		}
		ls := rec.sends.Get()
		ls.s, ls.seg = s, seg
		ls.send()
	}
}

// logSend is one segment on its way to one replica, recycled with its
// callbacks bound once by the pool's constructor. A record returns to
// the pool when its segment is delivered or its retransmission is
// abandoned; one whose log flow a fence cancels (CancelFlow) fires no
// callback again and is left to the GC.
type logSend struct {
	rec *recorder
	s   *replicaSlot
	seg *criu.LogSegment

	deliveredFn, droppedFn, retryFn func()
}

func (ls *logSend) send() {
	ls.s.view.Xfer.SubmitReq(ls.s.logFlow, []int64{ls.seg.WireBytes()}, ls.deliveredFn, ls.droppedFn)
}

func (ls *logSend) delivered() {
	ag, seg := ls.s.agent, ls.seg
	ls.release()
	ag.receiveLogSegment(seg)
}

// dropped re-streams a segment lost to a link cut after a deterministic
// delay (retry).
func (ls *logSend) dropped() {
	ls.rec.r.Cluster.Clock.Schedule(logRetransmitDelay, ls.retryFn)
}

// retry re-streams the segment unless that replica retired it meanwhile
// (acked directly, or implicitly by a checkpoint commit) or stopped
// being a valid destination.
func (ls *logSend) retry() {
	r, s := ls.rec.r, ls.s
	if r.stopped || ls.seg.Seq <= s.logAcked || s.fenced ||
		r.leaseState == LeaseUnprotected || r.leaseState == LeaseSuperseded ||
		s.agent.recovered || s.agent.halted {
		ls.release()
		return
	}
	ls.send()
}

func (ls *logSend) release() {
	ls.s, ls.seg = nil, nil
	ls.rec.sends.Put(ls)
}

// logAcked is the implicit-commit entry point: a checkpoint acked by
// every participating replica commits every segment sealed before its
// freeze, so ALL replicas' log watermarks advance at once (each of them
// committed the checkpoint — that is what the minimum epoch watermark
// certifies). Per-replica wire acks go through logAckedFrom instead.
func (r *Replicator) logAcked(seq uint64) {
	if r.rec == nil || r.stopped {
		// The one caller, recomputeWatermarks through epochAcked,
		// checks both first.
		panic("core: log ack without a recorder or after stop")
	}
	for _, s := range r.chain {
		if !s.fenced && seq > s.logAcked {
			s.logAcked = seq
		}
	}
	r.logRecompute()
}

// releaseThrough flushes the buffered egress of every segment <= seq.
func (rec *recorder) releaseThrough(seq uint64) {
	rec.r.Ctr.Qdisc.Release(seq)
	if seq > rec.released {
		rec.released = seq
	}
}

// epochAcked retires every segment sealed before an acknowledged
// checkpoint's freeze: the checkpoint contains their effects, so its
// commit implicitly commits them — including segments whose own
// transfer or acknowledgment was lost on the wire.
func (rec *recorder) epochAcked(e uint64) {
	var maxSeq uint64
	for ep, seq := range rec.sealedAtEpoch {
		if ep <= e {
			if seq > maxSeq {
				maxSeq = seq
			}
			delete(rec.sealedAtEpoch, ep)
		}
	}
	if maxSeq > rec.acked {
		rec.r.logAcked(maxSeq)
	}
}

// --- Backup side -------------------------------------------------------------

// receiveLogSegment buffers an arriving segment and acknowledges the
// contiguously received prefix. Out-of-order arrivals (an earlier
// segment was dropped and is being retransmitted) buffer silently —
// acknowledging past a gap would release output whose nondeterminism
// record could be lost forever.
func (b *BackupAgent) receiveLogSegment(seg *criu.LogSegment) {
	if b.recovered || b.halted {
		return
	}
	if seg.Seq > b.logContig {
		if b.logSegs[seg.Seq] == nil {
			b.CPUBusy += backupReadSyscall + backupCopyCost(seg.WireBytes())
		}
		b.logSegs[seg.Seq] = seg
		for b.logSegs[b.logContig+1] != nil {
			b.logContig++
		}
	}
	if b.promotePending {
		return
	}
	b.ackLog(false)
}

// ackLog sends the cumulative log acknowledgment for the contiguously
// received prefix when it is new, or with resend whenever there is one
// (detector tick): a cumulative ack lost on a flapping ack link must not
// leave committed-but-unflushed output held at the primary forever. Like
// the epoch ack, it doubles as an implicit lease grant stamped with its
// send time.
func (b *BackupAgent) ackLog(resend bool) {
	if b.logContig == 0 || (b.logContig <= b.logAckSent && !resend) {
		return
	}
	b.logAckSent = b.logContig
	b.sendAck(ackSegment, b.logContig, b.cfg.Lease.Enabled)
}

// truncateLog drops buffered segments a committed checkpoint supersedes
// (Seq <= the image's LogSeqThrough) and advances the contiguity
// watermark across any gap the checkpoint covered: segments lost on the
// wire below the watermark are retired by the page path, not the log
// path. Called from commit.
func (b *BackupAgent) truncateLog(through uint64) {
	if through > b.logContig {
		b.logContig = through
	}
	if through > b.logAckSent {
		// The primary learns about implicitly committed segments from the
		// epoch ack itself; never log-ack below the checkpoint watermark.
		b.logAckSent = through
	}
	for s := range b.logSegs {
		if s <= through {
			delete(b.logSegs, s)
		}
	}
	for b.logSegs[b.logContig+1] != nil {
		b.logContig++
	}
	if !b.promotePending {
		b.ackLog(false)
	}
}

// ReplayStats reports the failover replay of the committed
// nondeterminism-log suffix (Opts.RecordReplay).
type ReplayStats struct {
	// From and Through bound the replayed sequence range: From is the
	// restored checkpoint's LogSeqThrough+1, Through the last segment
	// replayed (Through < From when the suffix was empty).
	From, Through uint64
	// Segments and Events count the replayed segments and the recorded
	// ingress packets injected.
	Segments, Events int
	// Bytes is the application-level egress regenerated by the replay.
	Bytes int64
	// Cost is the replay's measured virtual-time CPU cost, re-run task
	// quanta included; it delays network-live by exactly this much.
	Cost simtime.Duration
	// Diverged marks a replay whose regenerated output did not match the
	// recorded per-segment digest; DivergedSeq is the first such segment.
	// A diverged replay is a correctness failure — the chaos oracle
	// fails the run.
	Diverged    bool
	DivergedSeq uint64
}

// replayLog re-executes the committed log suffix on the restored
// container: per segment, the recorded ingress packets are delivered to
// the restored stack in arrival order, and the app's tasks run the quanta
// that sent the rest of the segment's egress.
// Restored sockets are still in repair mode, so regenerated egress
// lands in their send queues and retransmits once the network is live;
// post-checkpoint connections are re-created by replaying their own
// handshakes through the restored listener. The per-segment egress
// digest is compared as the replay-divergence oracle.
func (b *BackupAgent) replayLog(ctr *container.Container) *ReplayStats {
	from := b.lastImage.LogSeqThrough + 1
	rs := &ReplayStats{From: from}
	digest := criu.DigestInit()
	var bytes int64
	ctr.Stack.OnAppSend = func(_ *simnet.Socket, data []byte) {
		digest = criu.DigestBytes(digest, data)
		bytes += int64(len(data))
	}
	defer func() { ctr.Stack.OnAppSend = nil }()
	for seq := from; seq <= b.logContig; seq++ {
		seg := b.logSegs[seq]
		if seg == nil {
			break
		}
		digest = criu.DigestInit()
		bytes = 0
		for i := range seg.Events {
			ctr.Stack.Receive(&seg.Events[i].Packet)
		}
		// An app that answers from its own tasks rather than inside the
		// ingress handler (workloads.Server) sent part of the segment's
		// egress from scheduling quanta: re-run quanta until the recorded
		// egress is regenerated, at most as many as the segment recorded.
		for steps := uint64(0); bytes < seg.EgressBytes && steps < seg.SchedSteps; steps++ {
			cpu, ok := ctr.StepReady()
			if !ok {
				break
			}
			rs.Cost += cpu
		}
		rs.Segments++
		rs.Events += len(seg.Events)
		rs.Through = seq
		rs.Bytes += bytes
		if digest != seg.EgressDigest || bytes != seg.EgressBytes {
			rs.Diverged = true
			rs.DivergedSeq = seq
			break
		}
	}
	return rs
}
