package simnet

import (
	"testing/quick"

	"testing"

	"nilicon/internal/simtime"
)

func TestSwitchForwardsByARP(t *testing.T) {
	c := simtime.NewClock()
	sw := NewSwitch(c, simtime.Millisecond, 28*simtime.Millisecond)
	pa := sw.Attach()
	pb := sw.Attach()
	sw.Learn("10.0.0.1", pa)
	sw.Learn("10.0.0.2", pb)
	var got []Packet
	pb.SetReceiver(func(p *Packet) { got = append(got, *p) })
	pa.Send(&Packet{Kind: KindTCP, Src: "10.0.0.1", Dst: "10.0.0.2"})
	if len(got) != 0 {
		t.Fatal("delivery should be delayed by link latency")
	}
	c.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if c.Now() != simtime.Time(simtime.Millisecond) {
		t.Fatalf("delivered at %v, want 1ms", c.Now())
	}
}

func TestSwitchDropsUnknownDestination(t *testing.T) {
	c := simtime.NewClock()
	sw := NewSwitch(c, 0, 0)
	pa := sw.Attach()
	pb := sw.Attach()
	n := 0
	pa.SetReceiver(func(*Packet) { n++ })
	pb.SetReceiver(func(*Packet) { n++ })
	pa.Send(&Packet{Dst: "10.9.9.9"})
	c.Run()
	if n != 0 || c.Executed() != 0 {
		t.Fatalf("frame to an unknown destination delivered %d times, %d deliveries scheduled", n, c.Executed())
	}
}

func TestDisabledPortDropsIngressAndEgress(t *testing.T) {
	c := simtime.NewClock()
	sw := NewSwitch(c, 0, 0)
	pa := sw.Attach()
	pb := sw.Attach()
	sw.Learn("b", pb)
	n := 0
	pb.SetReceiver(func(*Packet) { n++ })

	pb.SetEnabled(false)
	pa.Send(&Packet{Dst: "b"})
	c.Run()
	if n != 0 {
		t.Fatalf("disabled ingress: delivered %d frames", n)
	}

	pb.SetEnabled(true)
	pa.SetEnabled(false)
	pa.Send(&Packet{Dst: "b"})
	c.Run()
	if n != 0 {
		t.Fatal("disabled port transmitted")
	}
}

func TestDisconnectWhileInFlight(t *testing.T) {
	c := simtime.NewClock()
	sw := NewSwitch(c, simtime.Millisecond, 0)
	pa := sw.Attach()
	pb := sw.Attach()
	sw.Learn("b", pb)
	n := 0
	pb.SetReceiver(func(*Packet) { n++ })
	pa.Send(&Packet{Dst: "b"})
	// Disconnect before the frame lands.
	pb.SetEnabled(false)
	c.Run()
	if n != 0 {
		t.Fatal("frame delivered to port disconnected while in flight")
	}
}

func TestGratuitousARPRebindsAfterDelay(t *testing.T) {
	c := simtime.NewClock()
	sw := NewSwitch(c, 0, 28*simtime.Millisecond)
	pa := sw.Attach()
	pb := sw.Attach()
	sw.Learn("10.0.0.5", pa)
	done := simtime.Time(-1)
	sw.GratuitousARP("10.0.0.5", pb, func() { done = c.Now() })
	if sw.Lookup("10.0.0.5") != pa {
		t.Fatal("ARP rebound before propagation delay")
	}
	c.Run()
	if sw.Lookup("10.0.0.5") != pb {
		t.Fatal("ARP not rebound")
	}
	if done != simtime.Time(28*simtime.Millisecond) {
		t.Fatalf("GARP completed at %v, want 28ms", done)
	}
}

func TestLinkBandwidthSerialization(t *testing.T) {
	c := simtime.NewClock()
	// 10 Gb/s = 1.25e9 B/s; 1.25 MB takes 1 ms.
	l := NewLink(c, 50*simtime.Microsecond, 1_250_000_000)
	var t1, t2 simtime.Time
	l.Transfer(1_250_000, func() { t1 = c.Now() })
	l.Transfer(1_250_000, func() { t2 = c.Now() })
	c.Run()
	if t1 != simtime.Time(simtime.Millisecond+50*simtime.Microsecond) {
		t.Fatalf("first transfer at %v", t1)
	}
	// Second transfer serializes behind the first.
	if t2 != simtime.Time(2*simtime.Millisecond+50*simtime.Microsecond) {
		t.Fatalf("second transfer at %v (no FIFO serialization?)", t2)
	}
	if l.BytesSent() != 2_500_000 {
		t.Fatalf("BytesSent = %d", l.BytesSent())
	}
}

func TestLinkInfiniteBandwidth(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, simtime.Millisecond, 0)
	var at simtime.Time
	l.Transfer(1<<30, func() { at = c.Now() })
	c.Run()
	if at != simtime.Time(simtime.Millisecond) {
		t.Fatalf("infinite-bandwidth delivery at %v, want latency only", at)
	}
}

func TestLinkNegativeSizePanics(t *testing.T) {
	l := NewLink(simtime.NewClock(), 0, 0)
	for name, fn := range map[string]func(){
		"Transfer":        func() { l.Transfer(-1, nil) },
		"TransferExpress": func() { l.TransferExpress(-1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of -1 bytes: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestQdiscPassThroughWhenNotReplicating(t *testing.T) {
	var out, in []Packet
	q := NewPlugQdisc(func(p *Packet) { out = append(out, *p) }, func(p *Packet) { in = append(in, *p) })
	q.Egress(&Packet{Seq: 1})
	q.Ingress(&Packet{Seq: 2})
	if len(out) != 1 || len(in) != 1 {
		t.Fatalf("pass-through failed: out=%d in=%d", len(out), len(in))
	}
}

func TestQdiscEpochBufferingAndRelease(t *testing.T) {
	var out []Packet
	q := NewPlugQdisc(func(p *Packet) { out = append(out, *p) }, nil)
	q.SetReplicating(true)

	q.Egress(&Packet{Seq: 1}) // epoch 0
	q.Egress(&Packet{Seq: 2})
	q.Rotate(0)
	q.Egress(&Packet{Seq: 3}) // epoch 1
	q.Rotate(1)

	if len(out) != 0 {
		t.Fatal("packets leaked before release")
	}
	if q.PendingEgress() != 3 {
		t.Fatalf("pending = %d, want 3", q.PendingEgress())
	}
	q.Release(0)
	if len(out) != 2 || out[0].Seq != 1 || out[1].Seq != 2 {
		t.Fatalf("release(0) sent %v", out)
	}
	q.Release(1)
	if len(out) != 3 || out[2].Seq != 3 {
		t.Fatalf("release(1) sent %v", out)
	}
}

func TestQdiscReleaseIsOrdered(t *testing.T) {
	var out []Packet
	q := NewPlugQdisc(func(p *Packet) { out = append(out, *p) }, nil)
	q.SetReplicating(true)
	for i := uint32(1); i <= 5; i++ {
		q.Egress(&Packet{Seq: i})
		q.Rotate(uint64(i - 1))
	}
	q.Release(4)
	for i, p := range out {
		if p.Seq != uint32(i+1) {
			t.Fatalf("out-of-order release: %v", out)
		}
	}
}

func TestQdiscDiscardPending(t *testing.T) {
	var out []Packet
	q := NewPlugQdisc(func(p *Packet) { out = append(out, *p) }, nil)
	q.SetReplicating(true)
	q.Egress(&Packet{Seq: 1})
	q.Rotate(0)
	q.Egress(&Packet{Seq: 2})
	q.DiscardPending()
	q.Release(^uint64(0))
	if len(out) != 0 {
		t.Fatal("discarded packets were released")
	}
}

func TestQdiscSetReplicatingOffFlushes(t *testing.T) {
	var out []Packet
	q := NewPlugQdisc(func(p *Packet) { out = append(out, *p) }, nil)
	q.SetReplicating(true)
	q.Egress(&Packet{Seq: 1})
	q.SetReplicating(false)
	if len(out) != 1 {
		t.Fatal("buffered egress not flushed when replication stopped")
	}
}

func TestQdiscInputBlockingFirewallDrops(t *testing.T) {
	var in []Packet
	q := NewPlugQdisc(nil, func(p *Packet) { in = append(in, *p) })
	q.SetInputMode(FirewallDrop)
	q.BlockInput()
	q.Ingress(&Packet{Seq: 1})
	q.UnblockInput()
	q.Ingress(&Packet{Seq: 2})
	if len(in) != 1 || in[0].Seq != 2 {
		t.Fatalf("firewall mode: delivered %v, want only post-unblock packet", in)
	}
	if len(q.inputBuf) != 0 {
		t.Fatalf("firewall mode held %d packets, want 0", len(q.inputBuf))
	}
}

func TestQdiscInputBlockingPlugBuffers(t *testing.T) {
	var in []Packet
	q := NewPlugQdisc(nil, func(p *Packet) { in = append(in, *p) })
	q.SetInputMode(PlugBuffer)
	q.BlockInput()
	q.Ingress(&Packet{Seq: 1})
	q.Ingress(&Packet{Seq: 2})
	if len(in) != 0 {
		t.Fatal("blocked input leaked")
	}
	q.UnblockInput()
	if len(in) != 2 || in[0].Seq != 1 || in[1].Seq != 2 {
		t.Fatalf("plug mode delivered %v, want both in order", in)
	}
}

// Property: under any sequence of egress/rotate/release operations,
// (1) packets are released in exactly their egress order, (2) no packet
// is released before its epoch is acknowledged, and (3) every packet of
// an acknowledged epoch is out.
func TestPropertyQdiscEpochOrdering(t *testing.T) {
	f := func(ops []uint8) bool {
		var out []uint32
		q := NewPlugQdisc(func(p *Packet) { out = append(out, p.Seq) }, nil)
		q.SetReplicating(true)
		var seq uint32
		epoch := uint64(0)
		released := ^uint64(0) // none acked yet
		sentInEpoch := map[uint64][]uint32{}
		for _, op := range ops {
			switch op % 3 {
			case 0: // egress
				seq++
				q.Egress(&Packet{Seq: seq})
				sentInEpoch[epoch] = append(sentInEpoch[epoch], seq)
			case 1: // checkpoint boundary
				q.Rotate(epoch)
				epoch++
			case 2: // ack newest closed epoch
				if epoch > 0 {
					released = epoch - 1
					q.Release(released)
				}
			}
		}
		// (1) strictly increasing seq in out.
		for i := 1; i < len(out); i++ {
			if out[i] <= out[i-1] {
				return false
			}
		}
		outSet := map[uint32]bool{}
		for _, s := range out {
			outSet[s] = true
		}
		for e, seqs := range sentInEpoch {
			for _, s := range seqs {
				acked := released != ^uint64(0) && e <= released
				if acked && !outSet[s] {
					return false // (3) acked but not released
				}
				if !acked && outSet[s] {
					return false // (2) released without ack
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQdiscRecyclesEpochBuffers cycles a replicated qdisc through
// Egress, Rotate and Release with two epochs awaiting their
// acknowledgment, as the pipelined core runs it. Once the buffers have
// grown, released epoch buffers are reused, so a cycle allocates
// nothing, and every packet still leaves once, in order.
func TestQdiscRecyclesEpochBuffers(t *testing.T) {
	const perEpoch = 64
	var sent, next uint32
	ordered := true
	q := NewPlugQdisc(func(p *Packet) {
		ordered = ordered && p.Seq == sent
		sent++
	}, nil)
	q.SetReplicating(true)
	payload := make([]byte, 100)
	epoch := uint64(0)
	var pkt Packet // reused, as a stack reuses its one tx packet
	cycle := func() {
		for i := 0; i < perEpoch; i++ {
			pkt = Packet{Seq: next, Payload: payload}
			q.Egress(&pkt)
			next++
		}
		q.Rotate(epoch)
		if epoch >= 2 {
			q.Release(epoch - 2)
		}
		epoch++
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("an epoch of %d packets allocated %.1f objects, want 0", perEpoch, allocs)
	}
	if !ordered || sent != next-2*perEpoch || q.PendingEgress() != 2*perEpoch {
		t.Fatalf("released %d of %d packets (in order: %v), %d still held", sent, next, ordered, q.PendingEgress())
	}
}
