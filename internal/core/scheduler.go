package core

import (
	"nilicon/internal/fifo"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// xferChunkBytes is the streaming granularity of the TransferScheduler:
// small enough that concurrent replicators interleave fairly on the
// shared link (256 KiB serializes in ≈210 µs at 10 Gb/s), large enough
// that per-chunk bookkeeping is negligible.
const xferChunkBytes = 256 << 10

// xferReq is one queued transfer: a sequence of chunk sizes, a
// completion callback that fires when the last chunk is delivered, and
// an optional drop callback that fires (once) if any chunk's delivery is
// lost to a link outage — a half-streamed transfer must never complete.
// settled records that the outcome is decided — delivered, lost or
// cancelled — so at most one of done and dropped ever runs.
//
// Requests are recycled. refs counts what still holds one: its flow's
// queue, each scheduled drop watch, and the last chunk's delivery
// callback. The last to let go returns it to the scheduler's free list;
// a request whose delivery the link drops is never returned, and the GC
// takes it. deliverFn and watchFn are bound once per request record, so
// streaming a chunk allocates no callback.
type xferReq struct {
	s       *TransferScheduler
	chunks  []int64
	next    int
	done    func()
	dropped func()
	settled bool
	refs    int

	deliverFn, watchFn func()
}

// deliver runs on the last chunk's delivery. A request that lost an
// earlier chunk must never complete, even if its last chunk happens to
// be delivered after the link heals.
func (req *xferReq) deliver() {
	if !req.settled {
		req.settled = true
		req.done()
	}
	req.unref()
}

// watch runs at a chunk's delivery time and reports the request dropped
// if the link is down. The link's own delivery event was scheduled
// first at the same timestamp, so it usually observes the same down/up
// state this check does — but a done callback (or another lane) may
// take the link down in between, and a delivered request must not also
// report a drop: its receiver already owns what it was sent.
func (req *xferReq) watch() {
	if req.s.link.Down() && !req.settled {
		req.settled = true
		if req.dropped != nil {
			req.dropped()
		}
	}
	req.unref()
}

func (req *xferReq) unref() {
	if req.refs--; req.refs > 0 {
		return
	}
	req.chunks = req.chunks[:0]
	req.next = 0
	req.done, req.dropped = nil, nil
	req.settled = false
	req.s.freeReqs = append(req.s.freeReqs, req)
}

// xferFlow is one traffic source (one replicator's container, a disk
// resync, ...) with its FIFO queue of requests. Requests within a flow
// stay ordered; chunks across flows interleave round-robin.
type xferFlow struct {
	id   string
	reqs fifo.Queue[*xferReq]
}

// TransferScheduler owns the replication link and multiplexes concurrent
// state transfers from multiple Replicators over it. Each transfer is
// streamed as chunks; the scheduler services flows round-robin at chunk
// granularity, so a container with a small incremental image is not
// stuck behind another container's full synchronization. The next chunk
// is put on the link exactly when the previous one finishes serializing,
// so a lone flow's delivery times are identical to a single monolithic
// Link.Transfer.
type TransferScheduler struct {
	clock *simtime.Clock
	link  *simnet.Link

	flows   map[string]*xferFlow
	order   []*xferFlow // round-robin service order (creation order)
	cursor  int
	pumping bool
	// wire is the size of the chunk serializing on the link (0 when
	// idle).
	wire int64
	// pumpFn is pump bound once; freeReqs and freeFlows recycle request
	// and drained-flow records.
	pumpFn    func()
	freeReqs  []*xferReq
	freeFlows []*xferFlow
}

// NewTransferScheduler creates a scheduler owning the given link.
func NewTransferScheduler(clock *simtime.Clock, link *simnet.Link) *TransferScheduler {
	s := &TransferScheduler{clock: clock, link: link, flows: make(map[string]*xferFlow)}
	s.pumpFn = s.pump
	return s
}

// Submit queues a transfer on the named flow. done fires when the last
// chunk is delivered at the far end; like Link.Transfer, delivery (and
// therefore done) is dropped if the link is down — a half-streamed
// checkpoint must never be acknowledged.
func (s *TransferScheduler) Submit(flow string, chunks []int64, done func()) {
	s.SubmitReq(flow, chunks, done, nil)
}

// SubmitReq is Submit with a drop callback: dropped fires (at most once,
// at the failed chunk's would-be delivery time) if any chunk of the
// transfer is lost to a link outage. The sender uses this to learn that
// the receiver will never see the transfer and to arrange a resend or
// resynchronization instead of waiting for an acknowledgment forever.
// The chunk sizes are copied, so the caller keeps chunks.
func (s *TransferScheduler) SubmitReq(flow string, chunks []int64, done, dropped func()) {
	f := s.flows[flow]
	if f == nil {
		if n := len(s.freeFlows); n > 0 {
			f = s.freeFlows[n-1]
			s.freeFlows = s.freeFlows[:n-1]
			f.id = flow
		} else {
			f = &xferFlow{id: flow}
		}
		s.flows[flow] = f
		s.order = append(s.order, f)
	}
	var req *xferReq
	if n := len(s.freeReqs); n > 0 {
		req = s.freeReqs[n-1]
		s.freeReqs = s.freeReqs[:n-1]
	} else {
		req = &xferReq{s: s}
		req.deliverFn, req.watchFn = req.deliver, req.watch
	}
	req.chunks = append(req.chunks, chunks...)
	if len(chunks) == 0 {
		req.chunks = append(req.chunks, 0)
	}
	req.done, req.dropped = done, dropped
	req.refs = 1
	f.reqs.Push(req)
	if !s.pumping {
		s.pumping = true
		s.pump()
	}
}

// SubmitBytes queues a transfer of a raw byte count, chunked at the
// scheduler's streaming granularity.
func (s *TransferScheduler) SubmitBytes(flow string, size int64, done func()) {
	var chunks []int64
	for size > xferChunkBytes {
		chunks = append(chunks, xferChunkBytes)
		size -= xferChunkBytes
	}
	chunks = append(chunks, size)
	s.Submit(flow, chunks, done)
}

// QueuedBytes returns the bytes not yet put on the link across all flows.
func (s *TransferScheduler) QueuedBytes() int64 {
	var n int64
	for _, f := range s.order {
		for _, req := range f.reqs.All() {
			for _, c := range req.chunks[req.next:] {
				n += c
			}
		}
	}
	return n
}

// SendingBytes returns the bytes not yet off the sender: the chunk
// serializing on the link plus QueuedBytes. It turns nonzero the
// instant a transfer is submitted to an idle scheduler.
func (s *TransferScheduler) SendingBytes() int64 { return s.wire + s.QueuedBytes() }

// Flows returns the number of flows the scheduler currently retains.
// Flows are evicted once drained, so after quiesce this must be zero —
// a retained empty flow is a leak (and skews round-robin fairness
// against newly created flows).
func (s *TransferScheduler) Flows() int { return len(s.flows) }

// Reset drops all queued work and flow state. Used when a scheduler is
// repurposed for a new cluster topology (reprotect): queued transfers
// belong to the old primary and must not be replayed.
func (s *TransferScheduler) Reset() {
	s.flows = make(map[string]*xferFlow)
	s.order = nil
	s.cursor = 0
}

// CancelFlow silently drops one flow's queued requests and marks its
// in-flight request failed, without firing completion or drop callbacks:
// used when a pair is fenced off a shared scheduler (the receiver is
// dead; neither "delivered" nor "lost, please resync" is meaningful).
// Other flows keep their round-robin position. Chunks already
// serializing on the link still occupy it until they finish — cancelling
// cannot retroactively reclaim wire time.
func (s *TransferScheduler) CancelFlow(id string) {
	f := s.flows[id]
	if f == nil {
		return
	}
	for _, req := range f.reqs.All() {
		req.settled = true
		req.unref()
	}
	s.evict(f)
}

// pump puts the next chunk (round-robin across flows) on the link and
// schedules itself for when that chunk finishes serializing. Pumping is
// driven by the clock rather than by delivery callbacks so a link outage
// (which drops deliveries) cannot wedge the scheduler.
func (s *TransferScheduler) pump() {
	f := s.nextFlow()
	if f == nil {
		s.pumping, s.wire = false, 0
		return
	}
	req := f.reqs.Peek()
	size := req.chunks[req.next]
	s.wire = size
	req.next++
	last := req.next == len(req.chunks)
	if last {
		f.reqs.Pop()
		if f.reqs.Len() == 0 {
			s.evict(f)
		}
	}
	var deliverAt simtime.Time
	if last && req.done != nil {
		req.refs++
		deliverAt = s.link.Transfer(size, req.deliverFn)
	} else {
		deliverAt = s.link.Transfer(size, nil)
	}
	if req.done != nil || req.dropped != nil {
		// Watch for the chunk being lost to a link cut.
		req.refs++
		s.clock.ScheduleAt(deliverAt, req.watchFn)
	}
	if last {
		req.unref() // the queue's hold
	}
	// The link is free again once the chunk serializes; only propagation
	// latency separates that from delivery.
	s.clock.ScheduleAt(deliverAt.Add(-s.link.Latency()), s.pumpFn)
}

// evict removes a drained flow, preserving round-robin fairness for the
// remaining flows: the cursor is adjusted so the next pick continues
// from the same logical position.
func (s *TransferScheduler) evict(f *xferFlow) {
	delete(s.flows, f.id)
	f.reqs.Reset()
	f.id = ""
	s.freeFlows = append(s.freeFlows, f)
	for i, g := range s.order {
		if g == f {
			s.order = append(s.order[:i], s.order[i+1:]...)
			if i < s.cursor {
				s.cursor--
			}
			break
		}
	}
	if n := len(s.order); n > 0 {
		s.cursor %= n
	} else {
		s.cursor = 0
	}
}

// nextFlow picks the next flow with pending work, continuing round-robin
// from where the previous pick left off.
func (s *TransferScheduler) nextFlow() *xferFlow {
	n := len(s.order)
	for i := 0; i < n; i++ {
		f := s.order[(s.cursor+i)%n]
		if f.reqs.Len() > 0 {
			s.cursor = (s.cursor + i + 1) % n
			return f
		}
	}
	return nil
}
