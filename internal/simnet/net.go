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
	"fmt"

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

// Packet is one frame on the wire.
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
}

// Len returns the modeled wire size in bytes (40-byte header + payload).
func (p Packet) Len() int { return 40 + len(p.Payload) }

func (p Packet) String() string {
	f := ""
	if p.Flags&FlagSYN != 0 {
		f += "S"
	}
	if p.Flags&FlagACK != 0 {
		f += "A"
	}
	if p.Flags&FlagFIN != 0 {
		f += "F"
	}
	if p.Flags&FlagRST != 0 {
		f += "R"
	}
	return fmt.Sprintf("%s:%d>%s:%d %s seq=%d ack=%d len=%d",
		p.Src, p.SrcPort, p.Dst, p.DstPort, f, p.Seq, p.Ack, len(p.Payload))
}

// Port is one attachment point on the switch.
type Port struct {
	sw      *Switch
	name    string
	rx      func(Packet)
	enabled bool
	// clock, when set, is the simulated host's clock view: frames are
	// delivered (and gratuitous-ARP rebinds applied) on the receiving
	// host's shard. Nil ports deliver on the switch's own clock, which
	// on a single-clock topology is the same thing.
	clock *simtime.Clock
	// routes caches the switch's ARP lookups for frames this port sends,
	// indexed by routeSlot. An entry is valid while its gen equals the
	// switch's arpGen, which every ARP table change advances.
	routes [routeSlots]route
}

// route is one cached ARP lookup: addr was bound to port (nil: unknown)
// at ARP generation gen.
type route struct {
	addr Addr
	port *Port
	gen  uint64
}

// routeSlots is the size of a port's ARP lookup cache.
const routeSlots = 4

// routeSlot picks an address's cache slot from its last byte, so the
// lookup hashes nothing.
func routeSlot(a Addr) int {
	if len(a) == 0 {
		return 0
	}
	return int(a[len(a)-1]) & (routeSlots - 1)
}

// Name returns the port's label.
func (p *Port) Name() string { return p.name }

// SetReceiver installs the ingress handler.
func (p *Port) SetReceiver(fn func(Packet)) { p.rx = fn }

// SetEnabled connects or disconnects the port from the bridge. A
// disabled port drops all ingress — this is how the backup agent
// disconnects the container's network namespace from the virtual bridge
// during recovery (§IV).
func (p *Port) SetEnabled(on bool) { p.enabled = on }

// Enabled reports the port state.
func (p *Port) Enabled() bool { return p.enabled }

// Send puts a frame on the wire from this port.
func (p *Port) Send(pkt Packet) { p.sw.forward(p, pkt) }

// Switch is the L2 switch / virtual bridge. Delivery is by destination
// address through the ARP table; unknown destinations are dropped.
type Switch struct {
	clock   *simtime.Clock
	latency simtime.Duration
	// arpDelay models how long a gratuitous ARP takes to propagate and
	// take effect; Table II measures this at 28 ms.
	arpDelay simtime.Duration
	ports    []*Port
	arp      map[Addr]*Port
	// arpGen numbers the ARP table's versions; it starts at 1 so a zero
	// route is never valid. Learn and the GratuitousARP rebind advance
	// it.
	arpGen  uint64
	dropped int
	// free holds delivery records whose frame has been handed over, for
	// forward to reuse.
	free []*delivery
}

// delivery is one frame in flight across the switch. Its run method
// value is bound once, when the record is made, so scheduling a reused
// record allocates nothing.
type delivery struct {
	sw  *Switch
	dst *Port
	pkt Packet
	run func()
}

// NewSwitch creates a switch with the given per-hop latency and
// gratuitous-ARP propagation delay.
func NewSwitch(clock *simtime.Clock, latency, arpDelay simtime.Duration) *Switch {
	return &Switch{clock: clock, latency: latency, arpDelay: arpDelay, arp: make(map[Addr]*Port), arpGen: 1}
}

// Attach adds a port delivering on the switch's clock.
func (s *Switch) Attach(name string) *Port {
	return s.AttachOn(name, nil)
}

// AttachOn adds a port that delivers ingress on the given host clock,
// so the port's traffic runs as the host's shard.
func (s *Switch) AttachOn(name string, clock *simtime.Clock) *Port {
	p := &Port{sw: s, name: name, enabled: true, clock: clock}
	s.ports = append(s.ports, p)
	return p
}

// Learn binds an address to a port immediately (initial configuration).
func (s *Switch) Learn(addr Addr, p *Port) {
	s.arp[addr] = p
	s.arpGen++
}

// Lookup returns the port currently bound to addr (nil if none).
func (s *Switch) Lookup(addr Addr) *Port { return s.arp[addr] }

// GratuitousARP rebinds addr to p after the ARP propagation delay and
// then invokes done. The backup agent broadcasts this after restoring
// the container so client traffic reaches the new host (§VII-B). The
// rebind executes on the announcing port's clock when it has one.
func (s *Switch) GratuitousARP(addr Addr, p *Port, done func()) {
	clock := s.clock
	if p.clock != nil {
		clock = p.clock
	}
	clock.Schedule(s.arpDelay, func() {
		s.arp[addr] = p
		s.arpGen++
		if done != nil {
			done()
		}
	})
}

// Dropped returns the number of frames dropped (unknown destination or
// disabled port).
func (s *Switch) Dropped() int { return s.dropped }

func (s *Switch) forward(from *Port, pkt Packet) {
	if !from.enabled {
		s.dropped++
		return
	}
	r := &from.routes[routeSlot(pkt.Dst)]
	if r.gen != s.arpGen || r.addr != pkt.Dst {
		r.addr, r.port, r.gen = pkt.Dst, s.arp[pkt.Dst], s.arpGen
	}
	dst := r.port
	if dst == nil || !dst.enabled || dst.rx == nil {
		s.dropped++
		return
	}
	// Deliver on the receiving host's clock; clockless ports deliver on
	// the switch's.
	dstClock := s.clock
	if dst.clock != nil {
		dstClock = dst.clock
	}
	var d *delivery
	if n := len(s.free); n > 0 {
		d, s.free = s.free[n-1], s.free[:n-1]
	} else {
		d = &delivery{sw: s}
		d.run = d.deliver
	}
	d.dst, d.pkt = dst, pkt
	dstClock.Schedule(s.latency, d.run)
}

// deliver hands the frame to its port and returns the record to the
// free list first, so frames the receiver sends in response can reuse it.
func (d *delivery) deliver() {
	s, dst, pkt := d.sw, d.dst, d.pkt
	d.dst, d.pkt = nil, Packet{}
	s.free = append(s.free, d)
	// Re-check at delivery time: the port may have been disconnected
	// (recovery) while the frame was in flight.
	if !dst.enabled || dst.rx == nil {
		s.dropped++
		return
	}
	dst.rx(pkt)
}

// Link is a dedicated point-to-point link with bandwidth and latency,
// used for the primary→backup replication channel (10 GbE in the paper).
// Transfers are serialized FIFO: a transfer begins when the link is free.
type Link struct {
	clock     *simtime.Clock
	remote    *simtime.Clock // delivery clock; nil = deliver on clock
	latency   simtime.Duration
	bytesPerS int64
	busyUntil simtime.Time
	sent      int64
	down      bool
	drops     int64
	// free holds delivery records whose callback has run, for reuse.
	free []*linkDelivery
}

// linkDelivery is one transfer's completion in flight on a link. Its
// run method value is bound once, when the record is made, so a reused
// record schedules without allocating. A record whose delivery the
// link drops returns to the free list all the same.
type linkDelivery struct {
	l    *Link
	done func()
	run  func()
}

// deliver returns the record to the free list before running done, so
// transfers done starts can reuse it.
func (d *linkDelivery) deliver() {
	l, done := d.l, d.done
	d.done = nil
	l.free = append(l.free, d)
	if l.down {
		l.drops++
		return
	}
	done()
}

// NewLink creates a link. bytesPerSecond of zero means infinite bandwidth.
func NewLink(clock *simtime.Clock, latency simtime.Duration, bytesPerSecond int64) *Link {
	return &Link{clock: clock, latency: latency, bytesPerS: bytesPerSecond}
}

// BindRemote makes deliveries execute on the far end's clock, so they
// run as the far end's shard.
func (l *Link) BindRemote(c *simtime.Clock) { l.remote = c }

// deliver schedules done at time t on the delivery clock, unless the
// link is down by then.
func (l *Link) deliver(t simtime.Time, done func()) {
	c := l.clock
	if l.remote != nil {
		c = l.remote
	}
	var d *linkDelivery
	if n := len(l.free); n > 0 {
		d, l.free = l.free[n-1], l.free[:n-1]
	} else {
		d = &linkDelivery{l: l}
		d.run = d.deliver
	}
	d.done = done
	c.ScheduleAt(t, d.run)
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
