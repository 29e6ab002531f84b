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
type fuzzLink struct {
	clock *simtime.Clock
	fates []byte
	armed bool
}

const fuzzLatency = 100 * simtime.Microsecond

func (l *fuzzLink) send(dst *Stack, p Packet) {
	deliver := func(d simtime.Duration) { l.clock.Schedule(d, func() { dst.Receive(p) }) }
	if !l.armed || len(l.fates) == 0 {
		deliver(fuzzLatency)
		return
	}
	fate := l.fates[0]
	l.fates = l.fates[1:]
	held := fuzzLatency + simtime.Duration(fate>>2)*simtime.Millisecond
	switch fate & 3 {
	case 0:
		deliver(fuzzLatency)
	case 1: // dropped
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
func FuzzTCPStream(f *testing.F) {
	f.Add([]byte{}, []byte{200, 3, 90})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, []byte{64, 64, 64, 64})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 0}, []byte{255, 255, 255})
	f.Add([]byte{2, 6, 2, 0, 7, 11, 3, 1}, []byte{10, 120, 30, 250, 5})
	f.Fuzz(func(t *testing.T, fates, sizes []byte) {
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
		a = NewStack(c, "10.0.0.1", func(p Packet) { link.send(b, p) })
		b = NewStack(c, "10.0.0.2", func(p Packet) { link.send(a, p) })

		var got []byte
		var srv *Socket
		sentLen, segments := 0, 0
		b.Listen(80, func(s *Socket) {
			srv = s
			s.OnData = func(s *Socket) {
				got = append(got, s.ReadAll()...)
				if len(got) > sentLen || string(got) != string(want[:len(got)]) {
					t.Fatalf("receiver holds %d bytes, not a prefix of the %d sent", len(got), sentLen)
				}
			}
		})
		cl := a.Connect(b.IP, 80, func(s *Socket) {
			link.armed = true
			link.fates = fates
			off := 0
			for i, n := range sizes {
				chunk := want[off : off+int(n)*23+1]
				off += len(chunk)
				segments += (len(chunk) + s.stack.MSS - 1) / s.stack.MSS
				c.Schedule(simtime.Duration(i)*4*simtime.Millisecond, func() {
					sentLen += len(chunk)
					s.Send(chunk)
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
		if cl.Reset || srv.Reset || a.RSTsSent()+b.RSTsSent() > 0 {
			t.Fatal("connection reset")
		}
		if string(got) != string(want) {
			t.Fatalf("healed link delivered %d of %d bytes", len(got), len(want))
		}
		if n := cl.Retransmits(); n > fuzzRetransmitFactor*segments {
			t.Fatalf("%d retransmissions for %d segments (bound %dx)", n, segments, fuzzRetransmitFactor)
		}
	})
}
