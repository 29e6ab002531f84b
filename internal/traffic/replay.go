package traffic

import (
	"fmt"

	"nilicon/internal/fifo"
	"nilicon/internal/simtime"
)

// Conn is the transport one replayed client drives. Send puts one
// request on the wire; the transport owner must call
// Replayer.Completed(client) when that request's reply arrives.
// Replies on a connection arrive FIFO (TCP), which is what lets the
// replayer match completions to requests without IDs on the wire.
type Conn interface {
	Send(req Request)
}

// slowClientDepth caps a slow client's in-flight requests: open-loop
// arrivals beyond the cap queue client-side, modeling a client too slow
// to drain its socket. Queue wait counts toward observed latency.
const slowClientDepth = 1

// queuedReq is one arrival parked behind a slow client's in-flight cap.
type queuedReq struct {
	arrival simtime.Time
	req     Request
}

// Replayer drives a trace open-loop on the simulation clock: every
// arrival fires at its trace time regardless of earlier completions, so
// during a brownout the backlog a real client population would build is
// actually built. Completions feed the Judge with latency measured from
// trace arrival to reply arrival — client-side queue wait included.
type Replayer struct {
	clock *simtime.Clock
	tr    *Trace
	judge *Judge

	conns []Conn
	slow  []bool
	// inflight holds each client's in-flight requests awaiting their
	// FIFO replies, as open-loop arrival (trace) times, not send times.
	inflight []fifo.Queue[simtime.Time]
	queued   []fifo.Queue[queuedReq]

	next      int // cursor into tr.Reqs; the scheduled arrival is Reqs[next-1]
	start     simtime.Time
	arriveFn  func() // arriveNext bound once
	issued    int
	queuedNow int
	started   bool
}

// NewReplayer builds a replayer for one trace. The judge may be nil
// (capture-free smoke replays); conns must be installed for every
// client index before Start.
func NewReplayer(clock *simtime.Clock, tr *Trace, judge *Judge) *Replayer {
	r := &Replayer{
		clock:    clock,
		tr:       tr,
		judge:    judge,
		conns:    make([]Conn, tr.Header.Clients),
		slow:     make([]bool, tr.Header.Clients),
		inflight: make([]fifo.Queue[simtime.Time], tr.Header.Clients),
		queued:   make([]fifo.Queue[queuedReq], tr.Header.Clients),
	}
	for _, s := range tr.Header.SlowClients {
		r.slow[s] = true
	}
	r.arriveFn = r.arriveNext
	return r
}

// SetConn installs the transport for one client index.
func (r *Replayer) SetConn(client int, c Conn) { r.conns[client] = c }

// Start schedules the trace's arrivals from the given instant: request
// i fires at start + Reqs[i].At. The judge's window 0 is anchored at
// start.
func (r *Replayer) Start(start simtime.Time) {
	if r.started {
		panic("traffic: replayer started twice")
	}
	for _, c := range r.conns {
		if c == nil {
			panic("traffic: replayer started with an unset client conn")
		}
	}
	r.started = true
	if r.judge != nil {
		r.judge.Start(start)
	}
	// Arrivals are scheduled one ahead of the cursor instead of all up
	// front: the trace may hold hundreds of thousands of requests and
	// the wheel only ever needs the next one.
	r.start = start
	r.scheduleNext()
}

func (r *Replayer) scheduleNext() {
	if r.next >= len(r.tr.Reqs) {
		return
	}
	at := r.tr.Reqs[r.next].At
	r.next++
	r.clock.ScheduleAt(r.start.Add(simtime.Duration(at)), r.arriveFn)
}

// arriveNext is the scheduled arrival of Reqs[next-1].
func (r *Replayer) arriveNext() {
	r.arrive(r.clock.Now(), r.tr.Reqs[r.next-1])
	r.scheduleNext()
}

// arrive admits one open-loop arrival: judged, then sent — or queued
// client-side when the issuing client is slow and at its in-flight cap.
func (r *Replayer) arrive(arrival simtime.Time, req Request) {
	if r.judge != nil {
		r.judge.Arrived(arrival)
	}
	cidx := req.Client
	if r.slow[cidx] && r.inflight[cidx].Len() >= slowClientDepth {
		r.queued[cidx].Push(queuedReq{arrival: arrival, req: req})
		r.queuedNow++
		return
	}
	r.send(cidx, arrival, req)
}

func (r *Replayer) send(client int, arrival simtime.Time, req Request) {
	r.inflight[client].Push(arrival)
	r.issued++
	r.conns[client].Send(req)
}

// Completed is the transport's reply callback: the oldest in-flight
// request on that client just finished. It records the latency and
// drains the client-side queue if the client is slow.
func (r *Replayer) Completed(client int) {
	if r.inflight[client].Len() == 0 {
		// A reply with nothing in flight is a transport accounting bug.
		panic(fmt.Sprintf("traffic: completion on client %d with no in-flight request", client))
	}
	arrival := r.inflight[client].Pop()
	if r.judge != nil {
		r.judge.Completed(arrival, r.clock.Now())
	}
	// Slow-client drain: one completion frees one in-flight slot.
	for r.slow[client] && r.queued[client].Len() > 0 && r.inflight[client].Len() < slowClientDepth {
		qr := r.queued[client].Pop()
		r.queuedNow--
		r.send(client, qr.arrival, qr.req)
	}
}

// Outstanding returns the requests in flight on the wire.
func (r *Replayer) Outstanding() int {
	n := 0
	for i := range r.inflight {
		n += r.inflight[i].Len()
	}
	return n
}

// QueuedClientSide returns requests held behind slow clients' in-flight
// caps.
func (r *Replayer) QueuedClientSide() int { return r.queuedNow }

// Issued returns the requests actually sent (children included).
func (r *Replayer) Issued() int { return r.issued }
