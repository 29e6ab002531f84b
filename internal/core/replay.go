package core

// HyCoR-mode record/replay (DESIGN.md §12). With Opts.RecordReplay the
// primary records every source of nondeterminism the simulation owns —
// network input arrival order and payloads, getrandom results, and a
// scheduling digest — into an append-only log cut into small segments.
// Segments stream to the backup on their own TransferScheduler flow
// (ctrID+"/log"), scheduled fairly against the pair's page traffic, and
// output release gates on *segment* commit: the egress buffered while a
// segment was open flushes when the backup's cumulative log
// acknowledgment covers the segment. A segment is microseconds of data,
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
// suffix: recorded getrandom values are pre-pushed into each process's
// injection queue, then the recorded ingress packets are delivered to
// the restored stack in arrival order. Handlers run synchronously, so
// the replay regenerates the exact egress the primary released; the
// per-segment egress digest is the divergence oracle.
//
// The lease layer composes unchanged: a self-fenced primary parks the
// log-ack release watermark exactly as it parks epoch releases, and
// unfence flushes both in order.

import (
	"nilicon/internal/container"
	"nilicon/internal/criu"
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
	schedDigest  uint64
	schedSteps   uint64

	// nextSeq is the sequence the next sealed segment gets (1-based);
	// epoch is the checkpoint that will contain the open records.
	nextSeq uint64
	epoch   uint64

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
	// fence released lags acked, and unfence releases the difference.
	acked    uint64
	released uint64

	// freeSends recycles per-replica segment sends (logSend).
	freeSends []*logSend
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
		schedDigest:   criu.DigestInit(),
	}
	rec.sealTimer = simtime.NewTimer(r.Cluster.Clock, rec.seal)
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
	for i, p := range ctr.Procs {
		i := i
		p.RandHook = func(v uint64) { rec.onRandom(i, v) }
	}
}

// uninstall removes the capture hooks (replication teardown).
func (rec *recorder) uninstall() {
	ctr := rec.r.Ctr
	ctr.Qdisc.OnDeliver = nil
	ctr.Stack.OnAppSend = nil
	ctr.OnTaskStep = nil
	for _, p := range ctr.Procs {
		p.RandHook = nil
	}
	rec.sealTimer.Stop()
}

func (rec *recorder) onIngress(pkt simnet.Packet) {
	rec.events = append(rec.events, criu.LogEvent{Kind: criu.LogIngress, Packet: pkt})
	rec.noteActivity()
}

func (rec *recorder) onRandom(procIndex int, v uint64) {
	rec.events = append(rec.events, criu.LogEvent{Kind: criu.LogRandom, ProcIndex: procIndex, Value: v})
	rec.noteActivity()
}

func (rec *recorder) onAppSend(_ *simnet.Socket, data []byte) {
	rec.egressDigest = criu.DigestBytes(rec.egressDigest, data)
	rec.egressBytes += int64(len(data))
	rec.noteActivity()
}

// onTaskStep folds the scheduling-quantum sequence into the open
// segment's digest. Steps never trigger a seal on their own — they
// happen continuously and carry no releasable output.
func (rec *recorder) onTaskStep(tid int) {
	rec.schedDigest = criu.DigestUint64(rec.schedDigest, uint64(tid))
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
		Epoch:        rec.epoch,
		Events:       rec.events,
		EgressDigest: rec.egressDigest,
		EgressBytes:  rec.egressBytes,
		SchedDigest:  rec.schedDigest,
		SchedSteps:   rec.schedSteps,
	}
	// The segment keeps the slice; the next one starts at this one's
	// length instead of regrowing from nil.
	rec.events = make([]criu.LogEvent, 0, len(seg.Events))
	rec.egressDigest = criu.DigestInit()
	rec.egressBytes = 0
	rec.schedDigest = criu.DigestInit()
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
	rec.epoch = epoch + 1
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
		rec.submitTo(s, seg)
	}
}

func (rec *recorder) submitTo(s *replicaSlot, seg *criu.LogSegment) {
	var ls *logSend
	if n := len(rec.freeSends); n > 0 {
		ls = rec.freeSends[n-1]
		rec.freeSends = rec.freeSends[:n-1]
	} else {
		ls = &logSend{rec: rec}
		ls.deliveredFn, ls.droppedFn, ls.retryFn = ls.delivered, ls.dropped, ls.retry
	}
	ls.s, ls.seg = s, seg
	ls.send()
}

// logSend is one segment on its way to one replica. Its callbacks are
// bound once per record and records are recycled, so streaming a
// segment allocates no closure. A record returns to the free list when
// its segment is delivered or its retransmission is abandoned; one whose
// transfer the scheduler cancels is left to the GC.
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
	ls.rec.freeSends = append(ls.rec.freeSends, ls)
}

// logAcked is the implicit-commit entry point: a checkpoint acked by
// every participating replica commits every segment sealed before its
// freeze, so ALL replicas' log watermarks advance at once (each of them
// committed the checkpoint — that is what the minimum epoch watermark
// certifies). Per-replica wire acks go through logAckedFrom instead.
func (r *Replicator) logAcked(seq uint64) {
	if r.rec == nil || r.stopped {
		return
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
	b.ackLog()
}

// ackLog sends the cumulative log acknowledgment for the contiguously
// received prefix. Like the epoch ack, it doubles as an implicit lease
// grant stamped with its send time.
func (b *BackupAgent) ackLog() {
	if b.logContig <= b.logAckSent {
		return
	}
	seq := b.logContig
	b.logAckSent = seq
	b.sendLogAck(seq)
}

// resendLogAck re-sends the current watermark unconditionally (detector
// tick): a cumulative ack lost on a flapping ack link must not leave
// released-but-unflushed output parked at the primary forever.
func (b *BackupAgent) resendLogAck() {
	if b.logContig == 0 {
		return
	}
	b.logAckSent = b.logContig
	b.sendLogAck(b.logContig)
}

func (b *BackupAgent) sendLogAck(seq uint64) {
	var a *logAck
	if n := len(b.freeAcks); n > 0 {
		a = b.freeAcks[n-1]
		b.freeAcks = b.freeAcks[:n-1]
	} else {
		a = &logAck{b: b}
		a.deliverFn = a.deliver
	}
	a.seq, a.sentAt = seq, b.cl.Clock.Now()
	a.grant = b.cfg.Lease.Enabled && b.grantsLease()
	if a.grant {
		b.lastGrantSent = a.sentAt
	}
	b.cl.AckLink.Transfer(16, a.deliverFn)
}

// logAck is one cumulative log acknowledgment in flight on the ack
// link. Records are recycled with deliver bound once; one lost to a
// link cut is left to the GC.
type logAck struct {
	b      *BackupAgent
	seq    uint64
	sentAt simtime.Time
	grant  bool

	deliverFn func()
}

func (a *logAck) deliver() {
	b, seq, sentAt, grant := a.b, a.seq, a.sentAt, a.grant
	b.freeAcks = append(b.freeAcks, a)
	if grant {
		b.r.leaseGranted(sentAt)
	}
	b.r.logAckedFrom(b.slot, seq)
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
		b.ackLog()
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
	// events injected (ingress packets plus getrandom values).
	Segments, Events int
	// Bytes is the application-level egress regenerated by the replay.
	Bytes int64
	// Cost is the replay's measured virtual-time CPU cost; it delays
	// network-live by exactly this much.
	Cost simtime.Duration
	// Diverged marks a replay whose regenerated output did not match the
	// recorded per-segment digest; DivergedSeq is the first such segment.
	// A diverged replay is a correctness failure — the chaos oracle
	// fails the run.
	Diverged    bool
	DivergedSeq uint64
}

// replayLog re-executes the committed log suffix on the restored
// container: per segment, the recorded getrandom results are pre-pushed
// into the drawing processes' injection queues (draws happen
// synchronously inside the ingress handlers), then the recorded ingress
// packets are delivered to the restored stack in arrival order.
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
			if ev := &seg.Events[i]; ev.Kind == criu.LogRandom && ev.ProcIndex < len(ctr.Procs) {
				ctr.Procs[ev.ProcIndex].PushRand(ev.Value)
			}
		}
		for i := range seg.Events {
			if ev := &seg.Events[i]; ev.Kind == criu.LogIngress {
				ctr.Stack.Receive(ev.Packet)
			}
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
