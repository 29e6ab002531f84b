// Package simnet is the simulated network substrate: an L2 switch with an
// ARP table (the virtual bridge containers attach to), point-to-point
// links with bandwidth and latency (the dedicated 10 GbE replication
// link), a small but real TCP implementation with sequence numbers,
// cumulative ACKs, retransmission timers, fast retransmit and RST
// semantics, TCP repair mode for checkpoint/restore of established
// connections (§II-B), and the sch_plug-style qdisc NiLiCon uses to
// buffer container egress and block ingress during checkpoints (§II-A,
// §V-C).
package simnet

import (
	"nilicon/internal/pool"
	"nilicon/internal/simtime"
)

// Addr is an L3 address ("10.0.0.2"). The simulation does not model
// subnets; the switch forwards purely on its ARP table.
type Addr string

// PacketKind distinguishes TCP segments from ARP frames.
type PacketKind int

// Packet kinds.
const (
	KindTCP PacketKind = iota
	KindARP
)

// TCP header flags.
const (
	FlagSYN = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

// Packet is one frame on the wire. Packets travel by pointer from a
// stack's emit through the qdisc and the switch to the receiving stack.
// The pointer is valid for the call only: a holder that keeps a packet
// (a switch delivery, a qdisc's epoch buffer, a recorded log event)
// copies the struct and holds its payload's slab, and no callee writes
// it.
type Packet struct {
	Kind    PacketKind
	Src     Addr
	Dst     Addr
	SrcPort int
	DstPort int
	Flags   int
	Seq     uint32
	Ack     uint32
	Payload []byte
	slab    *Slab // the send slab Payload views (nil: untracked)
}

// Len returns the modeled wire size in bytes (40-byte header + payload).
func (p *Packet) Len() int { return 40 + len(p.Payload) }

// Port is one attachment point on the switch. Its frames are delivered
// on the switch's clock, the one clock every host shares.
type Port struct {
	sw      *Switch
	rx      func(*Packet)
	enabled bool
}

// SetReceiver installs the ingress handler.
func (p *Port) SetReceiver(fn func(*Packet)) { p.rx = fn }

// SetEnabled connects or disconnects the port from the bridge. A
// disabled port drops all ingress — this is how the backup agent
// disconnects the container's network namespace from the virtual bridge
// during recovery (§IV).
func (p *Port) SetEnabled(on bool) { p.enabled = on }

// Enabled reports the port state.
func (p *Port) Enabled() bool { return p.enabled }

// Send puts a frame on the wire from this port.
func (p *Port) Send(pkt *Packet) { p.sw.forward(p, pkt) }

// Switch is the L2 switch / virtual bridge. Delivery is by destination
// address through the ARP table; unknown destinations are dropped.
type Switch struct {
	clock   *simtime.Clock
	latency simtime.Duration
	// arpDelay models how long a gratuitous ARP takes to propagate and
	// take effect; Table II measures this at 28 ms.
	arpDelay simtime.Duration
	arp      map[Addr]*Port
	// deliveries recycles the records of frames handed over.
	deliveries pool.Free[delivery]
}

// delivery is one frame in flight across the switch. Its run method
// value is bound once, by the pool's constructor, so scheduling a
// reused record allocates nothing.
type delivery struct {
	sw  *Switch
	dst *Port
	pkt Packet
	run func()
}

// NewSwitch creates a switch with the given per-hop latency and
// gratuitous-ARP propagation delay.
func NewSwitch(clock *simtime.Clock, latency, arpDelay simtime.Duration) *Switch {
	s := &Switch{clock: clock, latency: latency, arpDelay: arpDelay, arp: make(map[Addr]*Port)}
	s.deliveries = pool.New(func() *delivery {
		d := &delivery{sw: s}
		d.run = d.deliver
		return d
	})
	return s
}

// Attach adds an enabled port.
func (s *Switch) Attach() *Port {
	return &Port{sw: s, enabled: true}
}

// Learn binds an address to a port immediately (initial configuration).
func (s *Switch) Learn(addr Addr, p *Port) { s.arp[addr] = p }

// Lookup returns the port currently bound to addr (nil if none).
func (s *Switch) Lookup(addr Addr) *Port { return s.arp[addr] }

// GratuitousARP rebinds addr to p after the ARP propagation delay and
// then invokes done. The backup agent broadcasts this after restoring
// the container so client traffic reaches the new host (§VII-B).
func (s *Switch) GratuitousARP(addr Addr, p *Port, done func()) {
	s.clock.Schedule(s.arpDelay, func() {
		s.arp[addr] = p
		if done != nil {
			done()
		}
	})
}

func (s *Switch) forward(from *Port, pkt *Packet) {
	if !from.enabled {
		return
	}
	dst := s.arp[pkt.Dst]
	if dst == nil || !dst.enabled || dst.rx == nil {
		return
	}
	d := s.deliveries.Get()
	d.dst, d.pkt = dst, *pkt
	pkt.slab.Hold(1)
	s.clock.Schedule(s.latency, d.run)
}

// deliver hands the record's frame to its port, by pointer, lets go of
// its payload and then returns the record to the pool.
func (d *delivery) deliver() {
	// Re-check at delivery time: the port may have been disconnected
	// (recovery) while the frame was in flight.
	if dst := d.dst; dst.enabled && dst.rx != nil {
		dst.rx(&d.pkt)
	}
	d.pkt.slab.Drop()
	d.dst, d.pkt = nil, Packet{}
	d.sw.deliveries.Put(d)
}

// Link is a dedicated point-to-point link with bandwidth and latency,
// used for the primary→backup replication channel (10 GbE in the paper).
// Transfers are serialized FIFO: a transfer begins when the link is free.
type Link struct {
	clock     *simtime.Clock
	latency   simtime.Duration
	bytesPerS int64
	busyUntil simtime.Time
	sent      int64
	down      bool
	drops     int64
	// deliveries recycles the records of completions that have run.
	deliveries pool.Free[linkDelivery]
}

// linkDelivery is one transfer's completion in flight on a link. Its
// run method value is bound once, by the pool's constructor, so a
// reused record schedules without allocating. A record whose delivery
// the link drops returns to the pool all the same.
type linkDelivery struct {
	l    *Link
	done func()
	run  func()
}

// deliver returns the record to the pool before running done, so
// transfers done starts can reuse it.
func (d *linkDelivery) deliver() {
	l, done := d.l, d.done
	d.done = nil
	l.deliveries.Put(d)
	if l.down {
		l.drops++
		return
	}
	done()
}

// NewLink creates a link. bytesPerSecond of zero means infinite bandwidth.
func NewLink(clock *simtime.Clock, latency simtime.Duration, bytesPerSecond int64) *Link {
	l := &Link{clock: clock, latency: latency, bytesPerS: bytesPerSecond}
	l.deliveries = pool.New(func() *linkDelivery {
		d := &linkDelivery{l: l}
		d.run = d.deliver
		return d
	})
	return l
}

// deliver schedules done at time t, unless the link is down by then.
func (l *Link) deliver(t simtime.Time, done func()) {
	d := l.deliveries.Get()
	d.done = done
	l.clock.ScheduleAt(t, d.run)
}

// Transfer schedules delivery of size bytes; done runs when the last
// byte arrives at the far end. Returns the delivery time. Transfers
// started or still in flight while the link is down are dropped.
func (l *Link) Transfer(size int64, done func()) simtime.Time {
	if size < 0 {
		panic("simnet: negative transfer size")
	}
	start := l.clock.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	var serialize simtime.Duration
	if l.bytesPerS > 0 {
		serialize = simtime.Duration(size * int64(simtime.Second) / l.bytesPerS)
	}
	l.busyUntil = start.Add(serialize)
	deliver := l.busyUntil.Add(l.latency)
	l.sent += size
	if done != nil {
		l.deliver(deliver, done)
	}
	return deliver
}

// TransferExpress delivers a small control message (heartbeat, ack)
// after the propagation latency only, without serializing behind queued
// bulk transfers: on the real link these ride as individual packets
// interleaved with the state stream.
func (l *Link) TransferExpress(size int64, done func()) simtime.Time {
	if size < 0 {
		panic("simnet: negative transfer size")
	}
	l.sent += size
	deliver := l.clock.Now().Add(l.latency)
	if done != nil {
		l.deliver(deliver, done)
	}
	return deliver
}

// Drops returns the number of deliveries lost to link-down cuts.
func (l *Link) Drops() int64 { return l.drops }

// Latency returns the link's propagation latency, the gap between the
// end of serialization and delivery. Schedulers that stream a transfer
// as back-to-back chunks use this to submit the next chunk exactly when
// the previous one finishes serializing, keeping the link saturated.
func (l *Link) Latency() simtime.Duration { return l.latency }

// SetDown cuts or restores the link; deliveries due while the link is
// down are lost (fail-stop fault emulation blocks all primary traffic,
// §VII-A).
func (l *Link) SetDown(down bool) { l.down = down }

// Down reports the link state.
func (l *Link) Down() bool { return l.down }

// BytesSent returns the cumulative bytes transferred.
func (l *Link) BytesSent() int64 { return l.sent }
