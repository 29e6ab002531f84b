package core

import (
	"fmt"

	"nilicon/internal/criu"
	"nilicon/internal/pool"
	"nilicon/internal/simdisk"
	"nilicon/internal/simtime"
	"nilicon/internal/trace"
)

// cowRedirtyDivisor models the copy-on-write cost of PipelinedTransfer:
// with the dirty pages write-protected instead of copied out during the
// stop, only the fraction of pages the container re-dirties before their
// turn in the stream pays a fault-time copy. Roughly one page in eight
// is re-written that soon at 30 ms epochs, so the runtime tax is the
// saved copy time divided by this.
const cowRedirtyDivisor = 8

// epochRun carries one epoch's checkpoint through the pipeline (§IV):
// block input, freeze and collect, resume, transfer, await the ack,
// release output. A run is created at the epoch boundary and lives
// until its output is released (or replication stops). The sequence
// has one fork, OptSet.overlapsTransfer: an overlapped run resumes the
// container at the end of the pause and streams the image while it
// runs; a stop-and-copy run streams from frozen memory and resumes the
// container when the lead's transfer ends.
type epochRun struct {
	r     *Replicator
	epoch uint64
	// img is the checkpoint image, held until the run retires — or only
	// until its transfer is reported lost, after which it is dead weight
	// (a lost image is never resent) and released; full records
	// img.Full for the measurement that outlives it.
	img   *criu.Image
	full  bool
	stats criu.CheckpointStats

	// startAt is the epoch boundary; pauseEnd is when the virtual-time
	// pause (block input + freeze/collect) ends; thawAt is when the
	// container actually resumed (≥ pauseEnd under stop-and-copy).
	startAt  simtime.Time
	pauseEnd simtime.Time
	thawAt   simtime.Time

	// cowTax is the copy-on-write runtime tax charged mid-epoch when
	// PipelinedTransfer defers the dirty-page copy out of the pause.
	cowTax simtime.Duration

	// wireBytes is the image's actual transfer size (encoded frames when
	// the delta encoder ran); frames is the encoding's frame mix.
	wireBytes int64
	frames    criu.EncodeStats

	// lead is the slot whose send ends the transfer (see cancelFlows).
	lead *replicaSlot

	// lossy marks a run whose own transfer was dropped on the link; it is
	// retired by a later cumulative ack and excluded from measurement.
	lossy bool

	// submitAt is when the transfer's submission (its encoding) began.
	submitAt simtime.Time

	// transferred is set, at transferredAt, when the lead's transfer
	// ends: delivered, lost, cancelled or retired by a covering ack.
	transferred   bool
	transferredAt simtime.Time
	// transfer, ackWait and commit are the recorded durations: submit
	// to transfer end, transfer end to covering ack, and epoch boundary
	// to output release. A lossy run records nothing, so its values are
	// never read.
	transfer, ackWait, commit simtime.Duration

	// refs counts what still refers to the run: the pipeline until the
	// output is released, and each pending thaw, submission and
	// encoded-submission event and image send. The last to let go
	// returns the run to the pool; Stop and unprotect drop the
	// pipeline's runs to the GC.
	refs pool.Refs
}

// begin runs the epoch boundary: input blocks, the container freezes
// and its image is collected, and the pause ends at pauseEnd. An
// overlapped run then schedules its thaw and its submission, both at
// pauseEnd and in that order; a stop-and-copy run submits at once and
// thaws when the transfer ends (finishTransfer).
func (run *epochRun) begin() {
	r := run.r
	run.pauseEnd = run.startAt.Add(run.blockInput() + run.freezeCollect())
	if !r.Cfg.Opts.overlapsTransfer() {
		run.submit()
		return
	}
	run.thaw()
	run.refs++
	r.submitQ.Push(run)
	r.Cluster.Clock.ScheduleAt(run.pauseEnd, r.submitFn)
}

// blockInput blocks network input for the duration of the stop phase
// (§III): sch_plug (43 µs) or firewall rules (7 ms) per §V-C. It
// returns the blocking cost.
func (run *epochRun) blockInput() simtime.Duration {
	r := run.r
	costs := r.Ctr.Host.Kernel.Costs
	r.Ctr.Qdisc.BlockInput()
	if r.Cfg.Opts.PlugInput {
		return costs.PlugBlock
	}
	return costs.FirewallSetup
}

// freezeCollect freezes the container and collects the checkpoint image.
// The state capture itself happens atomically at the epoch boundary; it
// returns the stop-phase pause it contributes.
func (run *epochRun) freezeCollect() simtime.Duration {
	r := run.r
	cl := r.Cluster
	costs := r.Ctr.Host.Kernel.Costs

	// A pending resync request turns this checkpoint into the
	// resynchronization baseline: full image, complete fs-cache dump, and
	// a disk snapshot on the same flow.
	resync := r.resyncArmed
	if resync {
		r.resyncArmed = false
		r.engine.ForceFull()
	}

	img, stats := r.engine.Checkpoint()
	run.img, run.full, run.stats = img, img.Full, stats

	var stop simtime.Duration
	if r.Cfg.Opts.PipelinedTransfer {
		// The dirty pages are write-protected instead of copied out
		// during the pause: the copy happens lazily while the image
		// streams, and only re-dirtied pages pay a
		// copy-on-write fault, charged as runtime tax mid-epoch.
		stop = stats.StopTimeExcludingCopy()
		run.cowTax = stats.MemCopy / cowRedirtyDivisor
	} else {
		stop = stats.StopTime()
	}
	stop += r.Cfg.ExtraStopPerCheckpoint
	if !r.Cfg.Opts.OptimizeCRIU {
		// Stock CRIU: fork a fresh checkpoint process per epoch and push
		// the state through the proxy processes (§V-A).
		stop += costs.CRIUForkSetup
		stop += costs.ProxyFixed + costs.ProxyPerMB*simtime.Duration(stats.StateBytes>>20)
	}

	// End this epoch's disk writes and start tagging the next epoch's.
	cl.DRBDPrimary.Barrier(run.epoch)
	cl.DRBDPrimary.SetEpoch(run.epoch + 1)

	if r.rec != nil {
		// Record/replay mode: the qdisc's egress buffers are keyed by log
		// segment, not epoch — output releases on segment commit. The
		// freeze point seals the open segment and stamps the checkpoint
		// with the log watermark it implicitly commits (replay.go).
		img.LogSeqThrough = r.rec.epochBoundary(run.epoch)
	} else {
		// Buffered output generated during this epoch is released only
		// when the backup acknowledges this checkpoint.
		r.Ctr.Qdisc.Rotate(run.epoch)
	}

	if resync {
		// The DRBD writes of the lost epochs never reached the backup, so
		// the barrier stream alone cannot repair the disk: snapshot the
		// primary disk (the container is frozen; content is stable through
		// epoch run.epoch) and ship it ahead of the image on the same flow
		// — FIFO ordering delivers the snapshot first.
		img.DiskResync = true
		r.Resyncs.Inc()
		r.resyncPending = run.epoch
		r.resyncPendingB = true
		epoch := run.epoch
		// Snapshot the pair's own volume, not the host disk: with the
		// fleet control plane a host runs many pairs, each on a private
		// DRBD volume (cl.DRBDPrimary.Local == cl.Primary.Disk only in the
		// single-pair topology).
		snap := cl.DRBDPrimary.Local.Clone()
		snapBytes := int64(snap.Blocks()) * simdisk.BlockSize
		// Every chain replica receives the snapshot on its own resync
		// flow: a resync is chain-global (it is the repair path for any
		// replica's loss, and the delta encoder's base gate is the chain
		// minimum, so all replicas must share the baseline). The snapshot
		// itself is immutable and safely shared.
		for _, s := range r.chain {
			if !s.live() {
				continue
			}
			s := s
			s.view.Xfer.SubmitBytes(s.flow, snapBytes, func() {
				// A snapshot still in flight when failover promotes the
				// backup is dead weight; never apply it to a promoted disk.
				if r.stopped || s.agent.recovered {
					return
				}
				if err := s.view.DRBDBackup.ApplyResync(snap, epoch); err != nil {
					panic(err)
				}
			}, func() {
				// Snapshot lost to another outage: this resync will never be
				// acknowledged; arm a fresh one.
				r.resyncPendingB = false
				if !r.stopped {
					r.resyncArmed = true
				}
			})
		}
	}

	return stop
}

// thaw schedules the container's resume: at the end of the pause when
// the transfer is overlapped, or when the lead's transfer ends under
// stop-and-copy. The resume itself is Replicator.thawNext.
func (run *epochRun) thaw() {
	r := run.r
	cl := r.Cluster
	run.thawAt = max(run.pauseEnd, cl.Clock.Now())
	run.refs++
	r.thawQ.Push(run)
	cl.Clock.ScheduleAt(run.thawAt, r.thawFn)
}

// resume is the thaw event: the container runs again, input flows, and
// the next epoch is timed from here.
func (run *epochRun) resume() {
	r := run.r
	if r.stopped {
		return
	}
	r.Ctr.Thaw()
	r.Ctr.Qdisc.UnblockInput()
	r.epochTimer.Reset(r.Cfg.EpochInterval)
	r.applyRuntimeTax(run.cowTax)
}

// submit encodes the image for the wire. The frame encoding happens at
// submission time, against whatever the cumulative-ack protocol has
// proven committed by then; its CPU cost delays the submission in
// virtual time, so the compression win is charged honestly against the
// bytes it saves.
func (run *epochRun) submit() {
	r := run.r
	cl := r.Cluster
	run.submitAt = cl.Clock.Now()
	at := run.submitAt.Add(r.encodeForWire(run))
	// One replication thread encodes and submits serially: never
	// submit ahead of a predecessor still being encoded (the backup
	// commits strictly in epoch order; reordering would NACK).
	if at < r.submitFloor {
		at = r.submitFloor
	}
	r.submitFloor = at
	// Always submit through the event queue: same-timestamp events run
	// in insertion order, so a zero-cost encode cannot overtake a
	// predecessor whose submission is pending at this very instant.
	run.refs++
	r.encodedQ.Push(run)
	cl.Clock.ScheduleAt(at, r.encodedFn)
}

// submitEncoded hands the encoded image to every live replica's flow.
// Fan-out: every live slot gets the one image, read-only from here on;
// the other slots' sends are submitted ahead of the lead's, whose
// delivery or loss alone ends the run's transfer. The image's page
// buffers are shared by every store it reaches, and the replicator's
// holder table counts them, so a raw store recycles a superseded buffer
// only when it is the last store holding it (DESIGN.md §8). Fenced
// slots get nothing.
func (run *epochRun) submitEncoded() {
	r := run.r
	img := run.img
	lead := r.lead()
	if lead == nil {
		// With every slot fenced there is no lead, and the run is lost
		// at once.
		run.leadDropped()
		return
	}
	n := 1
	for _, s := range r.chain {
		if s != lead && s.live() {
			n++
		}
	}
	img.HoldPages(r.holders, n)
	run.lead = lead
	for _, s := range r.chain {
		if s != lead && s.live() {
			r.sendImage(s, run)
		}
	}
	r.sendImage(lead, run)
}

// finishTransfer ends the run's transfer; a stop-and-copy container
// resumes now. Only the first end counts: a run retired unsent by a
// covering ack may still hear from its send.
func (run *epochRun) finishTransfer() {
	if run.transferred {
		return
	}
	now := run.r.Cluster.Clock.Now()
	run.transferred, run.transferredAt, run.transfer = true, now, now.Sub(run.submitAt)
	if !run.r.Cfg.Opts.overlapsTransfer() {
		run.thaw()
	}
}

// leadDropped is the lead's loss handler (Replicator.imageLost arms the
// resync). The run lets go of its image, marks itself lossy and ends its
// transfer, so a stop-and-copy container is not left frozen waiting on
// a delivery that cannot happen. Output stays buffered: only a later
// cumulative ack releases it.
func (run *epochRun) leadDropped() {
	run.lossy = true
	run.img = nil
	run.finishTransfer()
}

// releaseOutput flushes the epoch's buffered output. Its one caller is
// the ack watermark (Replicator.retireThrough), which holds every run
// while a self-fence forbids release (lease.go); the commit check below
// makes the output-commit invariant (DESIGN.md §4) fail loudly rather
// than silently if that ever changes.
func (run *epochRun) releaseOutput() {
	r := run.r
	if c, ok := r.slotMin(committedEpoch); !ok || c < run.epoch {
		panic(fmt.Sprintf("core: output-commit violation: releasing epoch %d before quorum commit", run.epoch))
	}
	if r.rec == nil {
		// In record/replay mode the qdisc is keyed (and flushed) by log
		// segment; the epoch pipeline only advances the commit watermark.
		r.Ctr.Qdisc.Release(run.epoch)
	}
	if !r.hasReleased || run.epoch > r.released {
		r.released = run.epoch
		r.hasReleased = true
	}
	run.commit = r.Cluster.Clock.Now().Sub(run.startAt)
	run.record()
	run.unref()
}

// --- Measurement -------------------------------------------------------------

// record appends the epoch's timeline row once the whole pipeline
// (through output release) has run for it. The initial full
// synchronization and resync baselines are one-time setup, and a lossy
// run never shipped its image; neither is a steady-state checkpoint.
func (run *epochRun) record() {
	r := run.r
	if run.full || run.lossy || r.Timeline == nil {
		return
	}
	r.Timeline.Record(trace.EpochRecord{
		Pair:        r.Ctr.ID,
		Epoch:       run.epoch,
		At:          run.startAt,
		Stop:        run.thawAt.Sub(run.startAt),
		FreezeWait:  run.stats.FreezeWait,
		MemCopy:     run.stats.MemCopy,
		SockColl:    run.stats.SocketCollect,
		StateBytes:  run.stats.StateBytes,
		DirtyPages:  run.stats.DirtyPages,
		Transfer:    run.transfer,
		AckWait:     run.ackWait,
		Commit:      run.commit,
		Inflight:    r.inflight.Len(),
		WireBytes:   run.wireBytes,
		FullFrames:  run.frames.FullFrames,
		DeltaFrames: run.frames.DeltaFrames,
		ZeroFrames:  run.frames.ZeroFrames,
		DedupFrames: run.frames.DedupFrames,
		Lease:       r.leaseState.String(),
		Replicas:    r.unfencedCount() + 1,
		Quorum:      r.Quorum(),
	})
}
