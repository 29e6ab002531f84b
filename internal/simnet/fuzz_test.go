package simnet

import (
	"testing"

	"nilicon/internal/simtime"
)

// fuzzLink joins two stacks directly. Once armed, each packet's fate is
// the next byte of fates: by its low two bits the packet is delivered,
// dropped, duplicated, or held back fate>>2 ms so later packets overtake
// it. When the bytes run out the link heals and delivers everything
// after a fixed latency.
//
// A packet that takes a fate has its payload copied into the link's
// append-only arena and is handed over as a slice of that arena whose
// capacity runs on over the packets that follow, so a receiver that
// appended into a delivered payload would overwrite a packet still in
// flight. Every other packet, on a healed link or before it is armed,
// hands over the sender's own segment, as a switch does, so a sender
// that wrote a byte it had already sent would change what was read; the
// link holds the packet's send slab until it delivers it, as a switch
// does.
type fuzzLink struct {
	clock *simtime.Clock
	fates []byte
	armed bool
	arena []byte
}

const fuzzLatency = 100 * simtime.Microsecond

func (l *fuzzLink) send(dst *Stack, pkt *Packet) {
	p := *pkt
	deliver := func(d simtime.Duration) {
		p.slab.Hold(1)
		l.clock.Schedule(d, func() {
			dst.Receive(&p)
			p.slab.Drop()
		})
	}
	if !l.armed || len(l.fates) == 0 {
		deliver(fuzzLatency)
		return
	}
	fate := l.fates[0]
	l.fates = l.fates[1:]
	if fate&3 == 1 { // dropped
		return
	}
	if len(p.Payload) > 0 {
		start := len(l.arena)
		l.arena = append(l.arena, p.Payload...)
		p.Payload, p.slab = l.arena[start:], nil
	}
	held := fuzzLatency + simtime.Duration(fate>>2)*simtime.Millisecond
	switch fate & 3 {
	case 0:
		deliver(fuzzLatency)
	case 2:
		deliver(fuzzLatency)
		deliver(held)
	case 3:
		deliver(held)
	}
}

// fuzzRetransmitFactor bounds a stream's retransmitted segments by this
// multiple of its original segments. The lossy phase lasts at most one
// packet per original segment, so the retransmissions it sees stay
// under one multiple; the second covers one Go-Back-N resend of the
// write queue once the link heals. A fast-retransmit storm (duplicates
// provoking more duplicates) breaks the bound.
const fuzzRetransmitFactor = 2

// FuzzTCPStream pushes a byte stream, written in chunks of sizes[i]*23+1
// bytes every 4 ms, through a connection whose data phase crosses a
// fuzzLink. The receiver's bytes must always be a prefix of what was
// sent; once the link heals the whole stream must arrive, with no reset
// and with retransmissions bounded by fuzzRetransmitFactor.
//
// It also checks the stream-byte ownership rule (DESIGN.md §8). A chunk
// of even size index (sizes[i] even) is written from one reused buffer
// that is overwritten right after Send, so Send must copy. An odd one
// is appended to SendBuffer's slab tail, which Send then sends in
// place; when sizes[i]%4 == 3 the tail is asked for half the room
// only, so the append may move the chunk to another array, which Send
// must copy. Every fourth read drains the queue with ReadAll, whose
// slice the receiver keeps, not a copy, to the end; the others use
// ReadHeld and keep the slice and its slab's hold over the next two
// hold-aware reads, then drop it, so slabs are recycled into later
// sends (of this stream or the next). Each kept slice must still hold
// the bytes it held when read as long as it is held: no later Send,
// retransmission, delivery or recycled slab may write a byte already
// handed out.
//
// Bit i of skips (low bit first) set means the receiver leaves the
// read queue alone on its i-th delivery, so the next delivery lands in
// a non-empty queue; what is left unread is drained at the end.
func FuzzTCPStream(f *testing.F) {
	f.Add([]byte{}, []byte{200, 3, 90}, []byte{})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, []byte{64, 64, 64, 64}, []byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 0}, []byte{255, 255, 255}, []byte{})
	f.Add([]byte{2, 6, 2, 0, 7, 11, 3, 1}, []byte{10, 120, 30, 250, 5}, []byte{})
	f.Add([]byte{}, []byte{200, 3, 90, 40}, []byte{0x55, 0x55})
	f.Add([]byte{2, 6, 2, 0, 7, 11, 3, 1}, []byte{10, 120, 30, 250, 5}, []byte{0xff, 0x0f, 0xf3})
	// A retransmission lands in a queue left unread while a held
	// segment is still in flight behind it on the link.
	f.Add([]byte("0170000000012"), []byte{0xbb, 0x91, 0xdd, 0xa2}, []byte("2"))
	f.Fuzz(func(t *testing.T, fates, sizes, skips []byte) {
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		var want []byte
		for _, n := range sizes {
			for i := 0; i < int(n)*23+1; i++ {
				want = append(want, byte(len(want)*7+len(want)>>8))
			}
		}

		c := simtime.NewClock()
		link := &fuzzLink{clock: c}
		var a, b *Stack
		a = NewStack(c, "10.0.0.1", func(p *Packet) { link.send(b, p) })
		b = NewStack(c, "10.0.0.2", func(p *Packet) { link.send(a, p) })

		var got []byte
		// keptRead is a read slice, as returned, at stream offset off,
		// with the slab it holds (nil for ReadAll's pinned ones).
		type keptRead struct {
			b   []byte
			off int
			sl  *Slab
		}
		var kept, held []keptRead
		check := func(k keptRead) {
			if string(k.b) != string(want[k.off:k.off+len(k.b)]) {
				t.Fatalf("read of stream bytes %d..%d changed while it was kept", k.off, k.off+len(k.b))
			}
		}
		var srv *Socket
		sentLen, segments, deliveries, reads := 0, 0, 0, 0
		read := func(s *Socket) {
			k := keptRead{off: len(got)}
			if reads%4 == 0 {
				k.b = s.ReadAll()
				kept = append(kept, k)
			} else {
				k.b, k.sl = s.ReadHeld()
				if held = append(held, k); len(held) > 2 {
					check(held[0])
					held[0].sl.Drop()
					held = held[1:]
				}
			}
			reads++
			got = append(got, k.b...)
			if len(got) > sentLen || string(got) != string(want[:len(got)]) {
				t.Fatalf("receiver holds %d bytes, not a prefix of the %d sent", len(got), sentLen)
			}
		}
		b.Listen(80, func(s *Socket) {
			srv = s
			s.OnData = func(s *Socket) {
				i := deliveries
				deliveries++
				if i/8 < len(skips) && skips[i/8]>>(i%8)&1 == 1 {
					return
				}
				read(s)
			}
		})
		cl := a.Connect(b.IP, 80, func(s *Socket) {
			link.armed = true
			link.fates = fates
			off := 0
			var out []byte
			for i, n := range sizes {
				chunk := want[off : off+int(n)*23+1]
				off += len(chunk)
				segments += (len(chunk) + s.stack.MSS - 1) / s.stack.MSS
				c.Schedule(simtime.Duration(i)*4*simtime.Millisecond, func() {
					sentLen += len(chunk)
					if n%2 == 1 {
						room := len(chunk)
						if n%4 == 3 {
							room /= 2
						}
						s.Send(append(s.SendBuffer(room), chunk...))
						return
					}
					out = append(out[:0], chunk...)
					s.Send(out)
					for j := range out {
						out[j] = ^out[j]
					}
				})
			}
			if len(link.fates) > segments {
				link.fates = link.fates[:segments]
			}
		})
		c.Run()

		if srv == nil || cl.State != StateEstablished {
			t.Fatalf("connection not established: client %v", cl)
		}
		read(srv)
		if cl.Reset || srv.Reset || a.RSTsSent()+b.RSTsSent() > 0 {
			t.Fatal("connection reset")
		}
		if string(got) != string(want) {
			t.Fatalf("healed link delivered %d of %d bytes", len(got), len(want))
		}
		for _, k := range kept {
			check(k)
		}
		for _, k := range held {
			check(k)
			k.sl.Drop()
		}
		if n := cl.Retransmits(); n > fuzzRetransmitFactor*segments {
			t.Fatalf("%d retransmissions for %d segments (bound %dx)", n, segments, fuzzRetransmitFactor)
		}
	})
}
