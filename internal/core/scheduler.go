package core

import (
	"nilicon/internal/fifo"
	"nilicon/internal/pool"
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
// cancelled — so at most one of done and dropped ever runs. flow lets
// CancelFlow find the request on the wire; watched counts its chunk
// watches that have run.
//
// Requests are recycled, their callbacks bound once by the pool's
// constructor. refs counts the holds: the flow's queue, each drop
// watch and the last chunk's delivery. The last returns the request to
// the pool. The delivery's hold is dropped by deliver, or, when the
// link discards that delivery, by the last chunk's watch.
type xferReq struct {
	s       *TransferScheduler
	flow    string
	chunks  []int64
	next    int
	watched int
	done    func()
	dropped func()
	settled bool
	refs    pool.Refs

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
	req.done = nil // tells the last chunk's watch that the delivery ran
	req.unref()
}

// watch runs at a chunk's delivery time and reports the request dropped
// if the link is down. The link's own delivery event was scheduled
// first at the same timestamp, so it usually observes the same down/up
// state this check does — but a done callback may take the link down
// in between, and a delivered request must not also report a drop: its
// receiver already owns what it was sent. After the last chunk's watch
// no callback can settle the request: it leaves onWire, whose head it
// is, since the link delivers in wire order. A last chunk whose
// delivery still holds the request (done is set) was discarded by the
// link, whose delivery ran first, so the watch drops that hold too.
func (req *xferReq) watch() {
	if req.s.link.Down() && !req.settled {
		req.settled = true
		if req.dropped != nil {
			req.dropped()
		}
	}
	if req.watched++; req.watched == len(req.chunks) {
		if req.s.onWire.Pop() != req {
			panic("core: a last chunk's watch ran out of wire order")
		}
		if req.done != nil {
			req.unref()
		}
	}
	req.unref()
}

// unref drops one hold; the last returns the request to the pool.
func (req *xferReq) unref() {
	if !req.refs.Drop() {
		return
	}
	req.flow, req.chunks, req.next, req.watched = "", req.chunks[:0], 0, 0
	req.done, req.dropped, req.settled = nil, nil, false
	req.s.reqPool.Put(req)
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
	// onWire holds the requests whose last chunk is on the link, for
	// CancelFlow, until that chunk's watch.
	onWire fifo.Queue[*xferReq]
	// pumpFn is pump bound once; reqPool and flowPool recycle request
	// and drained-flow records.
	pumpFn   func()
	reqPool  pool.Free[xferReq]
	flowPool pool.Free[xferFlow]
}

// NewTransferScheduler creates a scheduler owning the given link.
func NewTransferScheduler(clock *simtime.Clock, link *simnet.Link) *TransferScheduler {
	s := &TransferScheduler{clock: clock, link: link, flows: make(map[string]*xferFlow)}
	s.pumpFn = s.pump
	s.reqPool = pool.New(func() *xferReq {
		req := &xferReq{s: s}
		req.deliverFn, req.watchFn = req.deliver, req.watch
		return req
	})
	s.flowPool = pool.New(func() *xferFlow { return new(xferFlow) })
	return s
}

// SubmitReq queues a transfer of chunks (their sizes are copied) on the
// named flow. done fires when the last chunk is delivered. If a link
// outage loses any chunk, dropped fires instead, once, at that chunk's
// delivery time: the sender arranges a resend or resync rather than
// wait for an acknowledgment forever.
func (s *TransferScheduler) SubmitReq(flow string, chunks []int64, done, dropped func()) {
	f := s.flows[flow]
	if f == nil {
		f = s.flowPool.Get()
		f.id = flow
		s.flows[flow] = f
		s.order = append(s.order, f)
	}
	req := s.reqPool.Get()
	req.flow = flow
	req.chunks = append(req.chunks, chunks...)
	if len(chunks) == 0 {
		req.chunks = append(req.chunks, 0)
	}
	req.done, req.dropped = done, dropped
	req.refs++
	f.reqs.Push(req)
	if !s.pumping {
		s.pumping = true
		s.pump()
	}
}

// SubmitBytes is SubmitReq for a raw byte count, chunked at the
// scheduler's streaming granularity.
func (s *TransferScheduler) SubmitBytes(flow string, size int64, done, dropped func()) {
	var chunks []int64
	for size > xferChunkBytes {
		chunks = append(chunks, xferChunkBytes)
		size -= xferChunkBytes
	}
	s.SubmitReq(flow, append(chunks, size), done, dropped)
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

// Reset cancels every flow, as CancelFlow does. Used when a scheduler
// is repurposed for a new cluster topology (reprotect): its transfers
// belong to the old primary and must neither be replayed nor complete.
func (s *TransferScheduler) Reset() {
	for _, req := range s.onWire.All() {
		req.settled = true
	}
	for len(s.order) > 0 {
		s.CancelFlow(s.order[0].id)
	}
}

// CancelFlow settles one flow's requests, queued or with their last
// chunk on the wire, firing neither callback: the receiver of a fenced
// slot is dead, so neither "delivered" nor "lost, please resync" means
// anything. Other flows keep their round-robin position. Chunks on the
// link still occupy it, and hold a cancelled request, until they end.
func (s *TransferScheduler) CancelFlow(id string) {
	for _, req := range s.onWire.All() {
		if req.flow == id {
			req.settled = true
		}
	}
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
		// Watch for the chunk being lost to a link cut. Until the last
		// chunk's watch, a cancel finds the request on the wire.
		req.refs++
		if last {
			s.onWire.Push(req)
		}
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
	s.flowPool.Put(f)
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
