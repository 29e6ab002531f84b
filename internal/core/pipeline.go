package core

import (
	"fmt"

	"nilicon/internal/criu"
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

// epochRun carries one epoch's checkpoint through the stage graph. A run
// is created at the epoch boundary and lives until its output is
// released (or replication stops). Stages start as soon as their
// dependencies complete; which stages overlap container execution is
// decided entirely by the OptSet's stage graph (stage.go), not by the
// order of any loop body.
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

	deps    [NumStages][]Stage
	started [NumStages]bool
	done    [NumStages]bool
	doneAt  [NumStages]simtime.Time
	dur     [NumStages]simtime.Duration

	// startAt is the epoch boundary; pauseEnd is when the virtual-time
	// pause (BlockInput + FreezeCollect) ends; thawAt is when the
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

	// lossy marks a run whose own transfer was dropped on the link; it is
	// retired by a later cumulative ack and excluded from measurement.
	lossy bool
}

// start dispatches to a stage's implementation. The driver (advance)
// starts a stage the moment its dependencies are complete.
func (run *epochRun) start(s Stage) {
	switch s {
	case StageBlockInput:
		run.blockInput()
	case StageFreezeCollect:
		run.freezeCollect()
	case StageThaw:
		run.thaw()
	case StageTransfer:
		run.transfer()
	case StageAwaitAck:
		run.awaitAck()
	case StageReleaseOutput:
		run.releaseOutput()
	}
}

// advance starts every not-yet-started stage whose dependencies have
// completed. Synchronous stages complete inside their handler (possibly
// with a future virtual-time completion stamp); asynchronous stages
// complete from scheduled events or link-delivery callbacks, which call
// complete and thereby re-enter advance.
func (run *epochRun) advance() {
	for s := Stage(0); s < NumStages; s++ {
		if run.started[s] || !run.ready(s) {
			continue
		}
		run.started[s] = true
		run.start(s)
	}
}

func (run *epochRun) ready(s Stage) bool {
	for _, d := range run.deps[s] {
		if !run.done[d] {
			return false
		}
	}
	return true
}

// complete marks a stage finished at virtual time `at` with measured
// duration d, then lets dependent stages start.
func (run *epochRun) complete(s Stage, at simtime.Time, d simtime.Duration) {
	run.done[s] = true
	run.doneAt[s] = at
	run.dur[s] = d
	run.advance()
}

// --- Stage implementations ---------------------------------------------------

// blockInput blocks network input for the duration of the stop phase
// (§III): sch_plug (43 µs) or firewall rules (7 ms) per §V-C.
func (run *epochRun) blockInput() {
	r := run.r
	costs := r.Ctr.Host.Kernel.Costs
	var cost simtime.Duration
	if r.Cfg.Opts.PlugInput {
		cost = costs.PlugBlock
	} else {
		cost = costs.FirewallSetup
	}
	r.Ctr.Qdisc.BlockInput()
	run.complete(StageBlockInput, run.startAt.Add(cost), cost)
}

// freezeCollect freezes the container and collects the checkpoint image.
// The state capture itself happens atomically at the epoch boundary; the
// stage's virtual-time cost is the stop-phase pause it contributes.
func (run *epochRun) freezeCollect() {
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
		// streams (StageTransfer), and only re-dirtied pages pay a
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
		snap := cl.DRBDPrimary.Local.Clone(r.Ctr.ID + "-resync")
		snapBytes := int64(snap.Blocks()) * simdisk.BlockSize
		var chunks []int64
		for snapBytes > xferChunkBytes {
			chunks = append(chunks, xferChunkBytes)
			snapBytes -= xferChunkBytes
		}
		chunks = append(chunks, snapBytes)
		// Every chain replica receives the snapshot on its own resync
		// flow: a resync is chain-global (it is the repair path for any
		// replica's loss, and the delta encoder's base gate is the chain
		// minimum, so all replicas must share the baseline). The snapshot
		// itself is immutable and safely shared; the chunk slice is
		// per-flow state and copied.
		for _, s := range r.chain {
			if s.fenced || s.agent.recovered || s.agent.halted {
				continue
			}
			s := s
			ch := chunks
			if s.idx != 0 {
				ch = append([]int64(nil), chunks...)
			}
			s.view.Xfer.SubmitReq(r.flowFor(s.idx), ch, func() {
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

	r.LastStats = stats
	run.pauseEnd = run.doneAt[StageBlockInput].Add(stop)
	run.complete(StageFreezeCollect, run.pauseEnd, stop)
}

// thaw resumes the container once every dependency allows it: at the end
// of the pause when the transfer is overlapped, or after delivery at the
// backup under stop-and-copy. The recorded duration is the extra wait
// beyond the pause.
func (run *epochRun) thaw() {
	r := run.r
	cl := r.Cluster
	at := run.pauseEnd
	for _, d := range run.deps[StageThaw] {
		if run.doneAt[d] > at {
			at = run.doneAt[d]
		}
	}
	if now := cl.Clock.Now(); at < now {
		at = now
	}
	run.thawAt = at
	cl.Clock.ScheduleAt(at, func() {
		if r.stopped {
			return
		}
		r.Ctr.Thaw()
		r.Ctr.Qdisc.UnblockInput()
		r.epochEvent = cl.Clock.Schedule(r.Cfg.EpochInterval, r.runEpoch)
		r.applyRuntimeTax(run.cowTax)
		run.recordStop()
		run.complete(StageThaw, at, at.Sub(run.pauseEnd))
	})
}

// transfer streams the image to the backup through the cluster's
// TransferScheduler. Overlapped configurations start streaming when the
// container resumes (the pages are staged or CoW-protected by then);
// stop-and-copy streams during the pause, directly from frozen memory.
func (run *epochRun) transfer() {
	r := run.r
	cl := r.Cluster
	// The frame encoding happens at submission time, against whatever the
	// cumulative-ack protocol has proven committed by then; its CPU cost
	// delays the submission in virtual time, so the compression win is
	// charged honestly against the bytes it saves.
	doSubmit := func(start simtime.Time) {
		b := r.Backup
		epoch, img := run.epoch, run.img
		// Chain fan-out: every further replica gets its own deep copy of
		// the image on its own flow. The copy is mandatory, not an
		// optimization — each replica's store owns the pages it commits,
		// and a raw store recycles a verbatim page once a newer epoch
		// supersedes it, so two backups must never share page storage. Slot 0
		// keeps the original image and the legacy flow name, and alone
		// drives the pipeline's StageTransfer completion; replica drops
		// arm the same full-resync repair without touching the run.
		for _, s := range r.chain[1:] {
			if s.fenced || s.agent.recovered || s.agent.halted {
				continue
			}
			s := s
			img2 := img.Clone()
			s.view.Xfer.SubmitReq(r.flowFor(s.idx), img2.StreamChunks(xferChunkBytes), func() {
				s.agent.receiveState(epoch, img2)
			}, func() {
				r.replicaTransferDropped(epoch, img2)
			})
		}
		cl.Xfer.SubmitReq(r.Ctr.ID, img.StreamChunks(xferChunkBytes), func() {
			b.receiveState(epoch, img)
			now := cl.Clock.Now()
			run.complete(StageTransfer, now, now.Sub(start))
		}, func() {
			// The image was (partly) lost to a link cut: the backup will
			// never see this epoch. Mark the run lossy, arm a resync, and
			// complete the transfer stage so a stop-and-copy container is
			// not left frozen forever waiting on a delivery that cannot
			// happen. Output stays buffered: AwaitAck completes only via a
			// later cumulative ack. The image itself is released now: the
			// repair is a fresh full checkpoint, never a resend, so an
			// isolated primary retains no image past its loss.
			run.lossy = true
			run.img = nil
			img.ReleaseLost()
			if !r.stopped {
				r.resyncArmed = true
				if r.resyncPendingB && epoch == r.resyncPending {
					r.resyncPendingB = false
				}
			}
			now := cl.Clock.Now()
			run.complete(StageTransfer, now, now.Sub(start))
		})
	}
	submit := func() {
		start := cl.Clock.Now()
		at := start.Add(r.encodeForWire(run))
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
		cl.Clock.ScheduleAt(at, func() { doSubmit(start) })
	}
	if r.Cfg.Opts.StagingBuffer || r.Cfg.Opts.PipelinedTransfer {
		cl.Clock.ScheduleAt(run.pauseEnd, submit)
	} else {
		submit()
	}
}

// replicaTransferDropped handles a chain replica's image loss: the same
// NACK-free repair as a slot-0 drop — arm a full resync at the next
// checkpoint (chain-global: every replica receives the baseline) —
// without touching the pipeline run, whose transfer stage is driven by
// slot 0 alone. The replica's clone is released like a lost slot-0
// image.
func (r *Replicator) replicaTransferDropped(epoch uint64, img *criu.Image) {
	img.ReleaseLost()
	if r.stopped {
		return
	}
	r.resyncArmed = true
	if r.resyncPendingB && epoch == r.resyncPending {
		r.resyncPendingB = false
	}
}

// awaitAck has no work of its own: it completes when the backup's
// acknowledgment arrives (Replicator.ackReceived). If the backup fails
// or the link goes down, the stage never completes and the epoch's
// output stays buffered — which is exactly the output-commit rule.
func (run *epochRun) awaitAck() {}

// releaseOutput flushes the epoch's buffered output. The stage graph
// guarantees AwaitAck completed first; the commit check below makes the
// output-commit invariant (DESIGN.md §4) fail loudly rather than
// silently if the graph is ever miswired. A self-fenced primary parks
// the release instead (lease.go): the ack authorized it, but the lease
// that authorizes *releasing* lapsed — it flushes, in epoch order, when
// a grant returns.
func (run *epochRun) releaseOutput() {
	r := run.r
	if c, ok := r.chainCommittedWatermark(); !ok || c < run.epoch {
		panic(fmt.Sprintf("core: output-commit violation: releasing epoch %d before quorum commit", run.epoch))
	}
	if !r.releaseAuthorized() {
		r.parked = append(r.parked, run)
		return
	}
	run.finishRelease(r.Cluster.Clock.Now())
}

// finishRelease completes the release once both gates (ack and lease)
// allow it.
func (run *epochRun) finishRelease(now simtime.Time) {
	r := run.r
	if r.rec == nil {
		// In record/replay mode the qdisc is keyed (and flushed) by log
		// segment; the epoch pipeline only advances the commit watermark.
		r.Ctr.Qdisc.Release(run.epoch)
	}
	if !r.hasReleased || run.epoch > r.released {
		r.released = run.epoch
		r.hasReleased = true
	}
	run.complete(StageReleaseOutput, now, now.Sub(run.startAt))
	run.record()
}

// --- Measurement -------------------------------------------------------------

// recordStop adds the epoch's stop-phase samples once the actual resume
// time is known. The initial full synchronization is one-time setup;
// Tables III/IV report steady-state incremental checkpoints.
func (run *epochRun) recordStop() {
	if run.full || run.lossy {
		return
	}
	r := run.r
	stats := run.stats
	r.StopTimes.Add(run.thawAt.Sub(run.startAt).Seconds())
	r.StateBytes.Add(float64(stats.StateBytes))
	r.DirtyPages.Add(float64(stats.DirtyPages))
	r.FreezeWaits.Add(stats.FreezeWait.Seconds())
	r.SockCollects.Add(stats.SocketCollect.Seconds())
	r.ThreadColls.Add(stats.ThreadCollect.Seconds())
	r.MemCopies.Add(stats.MemCopy.Seconds())
	r.VMACollects.Add(stats.VMACollect.Seconds())
}

// record adds the per-stage samples and the timeline row once the whole
// pipeline (through output release) has run for this epoch.
func (run *epochRun) record() {
	if run.full || run.lossy {
		return
	}
	r := run.r
	for s := Stage(0); s < NumStages; s++ {
		r.StageTimes[s].Add(run.dur[s].Seconds())
	}
	r.BytesOnWire.Add(float64(run.wireBytes))
	if r.Timeline != nil {
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
			Transfer:    run.dur[StageTransfer],
			AckWait:     run.dur[StageAwaitAck],
			Commit:      run.dur[StageReleaseOutput],
			Inflight:    len(r.inflight),
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
}
