package core

import (
	"slices"

	"nilicon/internal/criu"
)

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

// unref drops one reference; the last lets go of the run's image and
// returns the run to the pool.
func (run *epochRun) unref() {
	if !run.refs.Drop() {
		return
	}
	if run.img != nil {
		run.img.DropSlabs()
	}
	r := run.r
	*run = epochRun{}
	r.runs.Put(run)
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

// imageSend is one epoch's read-only image on its way to one replica,
// holding a reference to the run. It is on its slot's list until it is
// delivered, lost or cancelled (cancelFlows), and then goes back to the
// pool, whose constructor binds its callbacks.
type imageSend struct {
	s   *replicaSlot
	img *criu.Image
	run *epochRun

	deliveredFn, droppedFn func()
}

// sendImage submits run's image to slot s's flow.
func (r *Replicator) sendImage(s *replicaSlot, run *epochRun) {
	is := r.sends.Get()
	is.s, is.img, is.run = s, run.img, run
	run.refs++
	s.sends = append(s.sends, is)
	r.chunks = run.img.AppendStreamChunks(r.chunks[:0], xferChunkBytes)
	s.view.Xfer.SubmitReq(s.flow, r.chunks, is.deliveredFn, is.droppedFn)
}

func (is *imageSend) delivered() {
	s, img, run := is.s, is.img, is.run
	is.release()
	s.agent.receiveState(run.epoch, img)
	if run.lead == s {
		run.finishTransfer()
	}
	run.unref()
}

// dropped is a lost send: its slot lets go of the image.
func (is *imageSend) dropped() {
	s, run := is.s, is.run
	is.img.DropSlabs()
	is.release()
	run.r.imageLost(run.epoch)
	if run.lead == s {
		run.leadDropped()
	}
	run.unref()
}

// release takes the send off its slot's list and back to the pool.
func (is *imageSend) release() {
	s, run := is.s, is.run
	i := slices.Index(s.sends, is)
	s.sends = slices.Delete(s.sends, i, i+1)
	is.s, is.img, is.run = nil, nil, nil
	run.r.sends.Put(is)
}
