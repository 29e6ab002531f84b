package simnet

import (
	"testing"

	"nilicon/internal/simtime"
)

// lossyConn is an established client→server connection whose server
// ingress is cut, so everything the client sends is lost. The client's
// egress is tapped: sent lists every segment it emits.
type lossyConn struct {
	*pair
	cl, srv *Socket
	sent    []Packet
}

func newLossyConn(t *testing.T) *lossyConn {
	t.Helper()
	lc := &lossyConn{pair: newPair(t)}
	lc.b.Listen(80, func(s *Socket) { lc.srv = s })
	lc.a.Connect(lc.b.IP, 80, func(s *Socket) { lc.cl = s })
	lc.clock.Run()
	if lc.cl == nil || lc.srv == nil {
		t.Fatal("handshake did not complete")
	}
	lc.a.SetOutput(func(p Packet) {
		lc.sent = append(lc.sent, p)
		lc.pa.Send(p)
	})
	lc.pb.SetEnabled(false)
	return lc
}

// ack injects a server segment into the client acknowledging ack.
func (lc *lossyConn) ack(ack uint32, payload []byte) {
	lc.a.Receive(Packet{
		Kind: KindTCP, Src: lc.b.IP, Dst: lc.a.IP,
		SrcPort: 80, DstPort: lc.cl.LocalPort,
		Flags: FlagACK, Seq: lc.cl.rcvNxt, Ack: ack, Payload: payload,
	})
}

// dupAcks injects n pure duplicate ACKs for the client's sndUna.
func (lc *lossyConn) dupAcks(n int) {
	for i := 0; i < n; i++ {
		lc.ack(lc.cl.sndUna, nil)
	}
}

// sendSegments queues n one-segment writes.
func (lc *lossyConn) sendSegments(n int) {
	for i := 0; i < n; i++ {
		lc.cl.Send([]byte("seg"))
	}
}

// A socket that keeps sending into a black hole still retransmits one
// RTO after its first unacknowledged send: later sends must not push
// the timer out (RFC 6298 §5.1).
func TestRTOArmedByFirstUnackedSend(t *testing.T) {
	lc := newLossyConn(t)
	start := lc.clock.Now()
	for i := 0; i < 100; i++ { // every 4 ms for 400 ms
		lc.clock.ScheduleAt(start.Add(simtime.Duration(i)*4*simtime.Millisecond), func() { lc.cl.Send([]byte("req")) })
	}
	lc.clock.RunUntil(start.Add(lc.a.RTOMin - simtime.Millisecond))
	if n := lc.cl.Retransmits(); n != 0 {
		t.Fatalf("%d retransmissions before RTOMin", n)
	}
	lc.clock.RunUntil(start.Add(lc.a.RTOMin))
	if lc.cl.Retransmits() == 0 {
		t.Fatalf("no retransmission at RTOMin (%v) after the first unacked send while sending every 4ms", lc.a.RTOMin)
	}
}

// The third duplicate ACK resends the write queue from sndUna at once,
// without backing off the RTO; two duplicates do nothing.
func TestFastRetransmitOnThirdDupAck(t *testing.T) {
	lc := newLossyConn(t)
	lc.sendSegments(4)
	una, queued := lc.cl.sndUna, len(lc.cl.sendQ)
	lc.dupAcks(2)
	if n := lc.cl.Retransmits(); n != 0 {
		t.Fatalf("2 duplicate ACKs retransmitted %d segments", n)
	}
	before := len(lc.sent)
	lc.dupAcks(1)
	if n := lc.cl.Retransmits(); n != queued {
		t.Fatalf("3rd duplicate ACK retransmitted %d segments, want the %d queued", n, queued)
	}
	if resent := lc.sent[before:]; len(resent) != queued || resent[0].Seq != una {
		t.Fatalf("fast retransmit emitted %d segments from seq %d, want %d from sndUna %d", len(resent), resent[0].Seq, queued, una)
	}
	if lc.cl.rto != lc.a.RTOMin {
		t.Fatalf("fast retransmit backed the RTO off to %v", lc.cl.rto)
	}
}

// Only pure ACKs for sndUna are duplicates: a data-carrying segment is
// not counted, and an ACK that advances sndUna restarts the count.
func TestDupAckCountSkipsDataAndNewAcks(t *testing.T) {
	lc := newLossyConn(t)
	lc.sendSegments(4)
	lc.dupAcks(2)
	lc.ack(lc.cl.sndUna, []byte("reply")) // carries data: not a duplicate
	if n := lc.cl.Retransmits(); n != 0 {
		t.Fatalf("a data segment counted as a duplicate ACK: %d retransmissions", n)
	}
	lc.ack(lc.cl.sndUna+3, nil) // acknowledges the first segment
	lc.dupAcks(2)
	if n := lc.cl.Retransmits(); n != 0 {
		t.Fatalf("an advancing ACK did not restart the duplicate count: %d retransmissions", n)
	}
	lc.dupAcks(1)
	if n := lc.cl.Retransmits(); n != 3 {
		t.Fatalf("3rd duplicate after an advancing ACK retransmitted %d segments, want 3", n)
	}
}

// After a fast retransmit, duplicate ACKs below the recover point (the
// sndNxt it recorded) never start another; once the cumulative ACK
// passes recover, the next loss fast-retransmits again.
func TestFastRetransmitRecoverPoint(t *testing.T) {
	lc := newLossyConn(t)
	lc.sendSegments(4)
	lc.dupAcks(3)
	first := lc.cl.Retransmits()
	recover := lc.cl.sndNxt
	lc.dupAcks(10)
	lc.ack(lc.cl.sndUna+3, nil) // partial ACK, still below recover
	lc.dupAcks(5)
	if n := lc.cl.Retransmits(); n != first {
		t.Fatalf("duplicate ACKs below recover fast-retransmitted again: %d → %d", first, n)
	}
	lc.sendSegments(2)
	lc.ack(recover+3, nil) // passes recover
	lc.dupAcks(3)
	if n := lc.cl.Retransmits() - first; n != 1 {
		t.Fatalf("fast retransmit past recover resent %d segments, want the 1 queued", n)
	}
}

// A socket in repair mode emits nothing: neither duplicate ACKs nor the
// passage of time make it retransmit.
func TestRepairModeNeverRetransmits(t *testing.T) {
	lc := newLossyConn(t)
	lc.sendSegments(4)
	lc.cl.EnterRepair()
	before := len(lc.sent)
	lc.dupAcks(5)
	lc.clock.RunFor(10 * simtime.Second)
	if n := lc.cl.Retransmits(); n != 0 || len(lc.sent) != before {
		t.Fatalf("socket in repair retransmitted %d segments (%d emitted)", n, len(lc.sent)-before)
	}
}

// rtoTimer is disarmed exactly when no timer runs: after the
// handshake, once everything is acknowledged, after a timer fires on an
// empty queue, and once the socket is dropped.
func TestRTOTimerClearedWhenIdle(t *testing.T) {
	p := newPair(t)
	var srv, cl *Socket
	p.b.Listen(80, func(s *Socket) { srv = s })
	p.a.Connect(p.b.IP, 80, func(s *Socket) { cl = s })
	p.clock.Run()
	if cl.rtoTimer.Armed() || srv.rtoTimer.Armed() {
		t.Fatal("timer left set after the handshake")
	}
	cl.Send([]byte("data"))
	if !cl.rtoTimer.Armed() {
		t.Fatal("send with data outstanding armed no timer")
	}
	p.clock.Run()
	if cl.rtoTimer.Armed() {
		t.Fatal("timer left set with everything acknowledged")
	}
	cl.Close()
	p.clock.Run()
	if cl.rtoTimer.Armed() || p.a.byID[cl.ID] != nil {
		t.Fatal("closed socket kept its timer or its table entry")
	}
}
