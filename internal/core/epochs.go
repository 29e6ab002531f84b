package core

import "nilicon/internal/criu"

// The epoch pipeline's per-epoch events are bound once per replicator
// and its per-replica sends are recycled records, as the log path's are
// (replay.go), so a steady-state epoch allocates no callback.

// thawNext, submitNext and encodedNext are the thaw, submission and
// encoded-submission events (epochRun.resume, submit, submitEncoded).
// Each pops the run at its queue's head: events of one kind fire in the
// order they were scheduled, since their times never decrease and
// same-time events run in insertion order.
func (r *Replicator) thawNext() {
	run := r.thawQ.Pop()
	run.resume()
	run.unref()
}

func (r *Replicator) submitNext() {
	run := r.submitQ.Pop()
	run.submit()
	run.unref()
}

func (r *Replicator) encodedNext() {
	run := r.encodedQ.Pop()
	run.submitEncoded()
	run.unref()
}

// newRun starts epoch e's run at the epoch boundary, reusing a retired
// run when one is free. The pipeline holds the first reference.
func (r *Replicator) newRun(e uint64) *epochRun {
	var run *epochRun
	if n := len(r.freeRuns); n > 0 {
		run = r.freeRuns[n-1]
		r.freeRuns = r.freeRuns[:n-1]
	} else {
		run = new(epochRun)
	}
	*run = epochRun{r: r, epoch: e, startAt: r.Cluster.Clock.Now(), refs: 1}
	return run
}

// unref drops one reference; the last returns the run to the free list.
func (run *epochRun) unref() {
	if run.refs--; run.refs > 0 {
		return
	}
	r := run.r
	*run = epochRun{}
	r.freeRuns = append(r.freeRuns, run)
}

// imageLost is every slot's loss handler: the slot's send of epoch's
// image was (partly) lost to a link cut, so that replica will never see
// this epoch, and a chain-global resync is armed. The repair is a fresh
// full checkpoint, never a resend: nothing keeps the lost send's image,
// so an isolated primary retains no image past its loss.
func (r *Replicator) imageLost(epoch uint64) {
	if r.stopped {
		return
	}
	r.resyncArmed = true
	if r.resyncPendingB && epoch == r.resyncPending {
		r.resyncPendingB = false
	}
}

// imageSend is one epoch's image on its way to one replica. Its
// callbacks are bound once per record and records are recycled; a
// record returns to the free list when its image is delivered or lost,
// and one whose transfer the scheduler cancels is left to the GC. Every
// send of an epoch carries the same read-only image. Only the lead's
// send refers to the run (and holds a reference to it): another slot's
// send carries the epoch and image alone.
type imageSend struct {
	r     *Replicator
	s     *replicaSlot
	epoch uint64
	img   *criu.Image
	run   *epochRun // the lead's send only

	deliveredFn, droppedFn func()
}

// sendImage submits epoch's img to slot s's flow; run is set for the
// lead slot's send, which ends the run's transfer.
func (r *Replicator) sendImage(s *replicaSlot, epoch uint64, img *criu.Image, run *epochRun) {
	var is *imageSend
	if n := len(r.freeSends); n > 0 {
		is = r.freeSends[n-1]
		r.freeSends = r.freeSends[:n-1]
	} else {
		is = &imageSend{r: r}
		is.deliveredFn, is.droppedFn = is.delivered, is.dropped
	}
	is.s, is.epoch, is.img, is.run = s, epoch, img, run
	if run != nil {
		run.refs++
	}
	r.chunks = img.AppendStreamChunks(r.chunks[:0], xferChunkBytes)
	s.view.Xfer.SubmitReq(s.flow, r.chunks, is.deliveredFn, is.droppedFn)
}

func (is *imageSend) delivered() {
	s, epoch, img, run := is.s, is.epoch, is.img, is.run
	is.release()
	s.agent.receiveState(epoch, img)
	if run != nil {
		run.finishTransfer()
		run.unref()
	}
}

func (is *imageSend) dropped() {
	r, epoch, run := is.r, is.epoch, is.run
	is.release()
	if run != nil {
		run.leadDropped()
		run.unref()
	} else {
		r.imageLost(epoch)
	}
}

func (is *imageSend) release() {
	is.s, is.img, is.run = nil, nil, nil
	is.r.freeSends = append(is.r.freeSends, is)
}
