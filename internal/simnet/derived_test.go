package simnet

import (
	"testing"

	"nilicon/internal/simtime"
)

// TestRouteCacheFollowsARPChanges checks forwarding against both paths
// that change the ARP table: a frame sent after a Learn or
// after a gratuitous ARP's rebind goes to the address's new port,
// however often the sender reached the old one before.
func TestRouteCacheFollowsARPChanges(t *testing.T) {
	c := simtime.NewClock()
	sw := NewSwitch(c, 100*simtime.Microsecond, 28*simtime.Millisecond)
	from := sw.Attach()
	got := map[string]int{}
	ports := map[string]*Port{}
	for _, name := range []string{"primary", "backup", "spare"} {
		p := sw.Attach()
		p.SetReceiver(func(Packet) { got[name]++ })
		ports[name] = p
	}
	send := func(want string) {
		t.Helper()
		before := got[want]
		for i := 0; i < 3; i++ {
			from.Send(Packet{Kind: KindTCP, Dst: "10.0.0.9"})
		}
		c.Run()
		if got[want]-before != 3 {
			t.Fatalf("frames to 10.0.0.9: %v, want all 3 new ones at %s", got, want)
		}
	}
	sw.Learn("10.0.0.9", ports["primary"])
	send("primary")
	sw.GratuitousARP("10.0.0.9", ports["backup"], nil)
	c.Run()
	send("backup")
	sw.Learn("10.0.0.9", ports["spare"])
	send("spare")
}

// TestDemuxFollowsDropAndRestore checks the stack's connection lookup:
// once a socket is dropped its segments find no socket (the stack
// answers with RST), and once a socket is restored under the same
// connection — after the drop, or over a live socket — they reach the
// restored socket, not the one the lookup last returned.
func TestDemuxFollowsDropAndRestore(t *testing.T) {
	p := newPair(t)
	var srv, cl *Socket
	p.b.Listen(80, func(s *Socket) { srv = s })
	p.a.Connect(p.b.IP, 80, func(s *Socket) { cl = s })
	p.clock.Run()
	cl.Send([]byte("hello"))
	p.clock.Run()
	if srv.Available() != 5 {
		t.Fatalf("server has %d bytes, want 5", srv.Available())
	}
	srv.EnterRepair()
	sn := p.b.SnapshotSocket(srv)
	segment := func(flags int, payload string) Packet {
		return Packet{Kind: KindTCP, Src: p.a.IP, Dst: p.b.IP, SrcPort: cl.LocalPort, DstPort: 80,
			Flags: flags, Seq: sn.RcvNxt, Ack: sn.SndNxt, Payload: []byte(payload)}
	}

	p.b.Receive(segment(FlagRST, ""))
	if !srv.Reset || p.b.byID[srv.ID] != nil {
		t.Fatal("RST did not drop the server socket")
	}
	rsts := p.b.RSTsSent()
	p.b.Receive(segment(FlagACK, "x"))
	if p.b.RSTsSent() != rsts+1 || srv.Available() != 5 {
		t.Fatalf("a segment for the dropped socket: %d RSTs sent (want %d), dropped socket holds %d bytes (want 5)",
			p.b.RSTsSent()-rsts, 1, srv.Available())
	}

	r := p.b.RestoreSocket(sn)
	r.LeaveRepair(true)
	p.b.Receive(segment(FlagACK, "x"))
	if r.Available() != 6 || srv.Available() != 5 {
		t.Fatalf("restored socket holds %d bytes (want 6), dropped one %d (want 5)", r.Available(), srv.Available())
	}

	// A restore over a live socket of the same connection takes the
	// connection over at once.
	r2 := p.b.RestoreSocket(sn)
	r2.LeaveRepair(true)
	p.b.Receive(segment(FlagACK, "y"))
	if r2.Available() != 6 || r.Available() != 6 {
		t.Fatalf("second restore holds %d bytes (want 6), the socket it replaced %d (want 6)", r2.Available(), r.Available())
	}
}
