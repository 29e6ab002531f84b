package simnet

import (
	"slices"

	"nilicon/internal/simkernel"
	"nilicon/internal/simtime"
)

// TCPState is the connection state machine (reduced to the states the
// replication protocol interacts with).
type TCPState int

// TCP states.
const (
	StateClosed TCPState = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait
	StateCloseWait
)

// seqLT reports a < b in 32-bit sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLE reports a <= b in 32-bit sequence space.
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }

type segment struct {
	seq  uint32
	data []byte
	slab *Slab // data's slab, held until the segment is acknowledged
	fin  bool
}

func (sg segment) end() uint32 {
	e := sg.seq + uint32(len(sg.data))
	if sg.fin {
		e++
	}
	return e
}

// Socket is one TCP endpoint.
type Socket struct {
	ID         int
	stack      *Stack
	State      TCPState
	LocalPort  int
	Remote     Addr
	RemotePort int

	sndUna uint32 // oldest unacknowledged byte
	sndNxt uint32 // next byte to send
	rcvNxt uint32 // next byte expected

	// sendQ holds transmitted-but-unacknowledged segments: the "write
	// queue" TCP repair mode exposes (§II-B). Each segment's data is a
	// view of a send slab that keeps the slab's capacity. sendQ is a
	// window onto sendArr, which starts at its backing array's first
	// element: acknowledged segments are dropped from the window's
	// front, a fully acknowledged queue starts again at the array's
	// front, and a window that reaches the array's end moves back to the
	// front once half the array is free.
	sendQ   []segment
	sendArr []segment
	// slab is the append-only buffer Send copies application bytes into,
	// or that SendBuffer lends for the application to write them into.
	// Bytes below len(slab) belong to segments already handed to the
	// network and are never written again; a slab too full for the next
	// Send is replaced, and goes back to the free list once the last
	// view of it is let go (DESIGN.md §8, stream-byte ownership).
	// slabRef is its holder count, held by the socket while it is the
	// current slab (nil for a restored socket's queue).
	slab    []byte
	slabRef *Slab
	// recvBuf holds bytes received in order but not yet read by the
	// process: the "read queue". Unless recvOwn is set it is a delivered
	// payload itself, possibly extended in place over later payloads of
	// the same slab, and recvSlab holds that slab; its capacity then
	// reaches into the sender's slab, so nothing is appended to it.
	// recvOwn marks a buffer the socket allocated, which later
	// deliveries append to.
	recvBuf  []byte
	recvSlab *Slab
	recvOwn  bool

	rto simtime.Duration
	// rtoTimer is the retransmission timer, armed exactly while a
	// retransmission (or, with synTimer set, a SYN) timeout runs. It is
	// made once per socket with onTimer bound, so re-arming allocates
	// nothing.
	rtoTimer   *simtime.Timer
	synTimer   bool
	synTries   int
	retransmit int
	// dupAcks counts consecutive duplicate ACKs for sndUna (RFC 5681
	// §2); recover is the ISS, then the sndNxt recorded at the last fast
	// retransmit (RFC 6582): a socket re-enters fast retransmit only
	// once the cumulative ACK has passed it.
	dupAcks int
	recover uint32

	// repair marks the socket as being in TCP repair mode: no packets
	// are emitted and state can be set directly.
	repair bool
	// restoredAt records when the socket was recreated from a snapshot;
	// the retransmission timer is credited with the time already spent
	// in later restore steps (the kernel arms the timer when the write
	// queue is repaired, not when repair mode ends).
	restoredAt simtime.Time
	wasRestore bool

	// Reset reports that the connection was reset.
	Reset bool

	// Callbacks into the owning application.
	OnData    func(*Socket)
	OnConnect func(*Socket)
	OnReset   func(*Socket)
	OnClose   func(*Socket)

	// acceptCb fires when a SynRcvd socket completes the handshake.
	acceptCb func(*Socket)
}

// Listener accepts incoming connections on a port.
type Listener struct {
	OnAccept func(*Socket)
}

type connKey struct {
	remote     Addr
	remotePort int
	localPort  int
}

// Stack is one host's (or container network namespace's) TCP stack.
type Stack struct {
	clock *simtime.Clock
	// Kernel, when set, receives virtual-time charges for repair-mode
	// operations (socket checkpointing costs).
	Kernel *simkernel.Kernel

	IP  Addr
	out func(*Packet)
	// tx is the packet emit hands to out. The egress path copies what it
	// keeps and never re-enters emit, so one per stack serves every
	// packet without an allocation.
	tx Packet

	sockets   map[connKey]*Socket
	byID      map[int]*Socket
	listeners map[int]*Listener
	nextID    int
	nextPort  int

	// MSS is the maximum segment payload size.
	MSS int
	// RTOMin is the repair-mode retransmission timeout NiLiCon's kernel
	// patch applies (200 ms, §V-E).
	RTOMin simtime.Duration
	// RTOInitial is the default timeout for fresh sockets (≥1 s), which
	// is what makes recovery slow without the patch.
	RTOInitial simtime.Duration

	// OnAppSend, when set, observes every application-level Send that is
	// accepted for transmission (payload before segmentation). Unlike a
	// qdisc-level tap it fires even for sockets in repair mode, so the
	// record/replay divergence oracle can digest the output a restored
	// container produces while its network is still quiesced and compare
	// it to the primary's recorded stream.
	OnAppSend func(*Socket, []byte)

	rstSent int
}

// NewStack creates a TCP stack with address ip whose egress goes to out.
func NewStack(clock *simtime.Clock, ip Addr, out func(*Packet)) *Stack {
	return &Stack{
		clock:      clock,
		IP:         ip,
		out:        out,
		sockets:    make(map[connKey]*Socket),
		byID:       make(map[int]*Socket),
		listeners:  make(map[int]*Listener),
		nextID:     1,
		nextPort:   49152,
		MSS:        1460,
		RTOMin:     200 * simtime.Millisecond,
		RTOInitial: simtime.Second,
	}
}

// SetOutput replaces the egress path.
func (st *Stack) SetOutput(out func(*Packet)) { st.out = out }

// RSTsSent counts reset packets this stack has emitted; the recovery
// validation asserts this stays zero at the backup (§III).
func (st *Stack) RSTsSent() int { return st.rstSent }

// Sockets returns all sockets in creation order.
func (st *Stack) Sockets() []*Socket {
	out := make([]*Socket, 0, len(st.byID))
	for id := 1; id < st.nextID; id++ {
		if s, ok := st.byID[id]; ok {
			out = append(out, s)
		}
	}
	return out
}

// Listen registers an accept callback for a port.
func (st *Stack) Listen(port int, onAccept func(*Socket)) *Listener {
	l := &Listener{OnAccept: onAccept}
	st.listeners[port] = l
	return l
}

// Unlisten removes a listener.
func (st *Stack) Unlisten(port int) {
	delete(st.listeners, port)
}

// ListenPortList returns the ports with registered listeners, in
// ascending order.
func (st *Stack) ListenPortList() []int {
	out := make([]int, 0, len(st.listeners))
	for p := range st.listeners {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

func (st *Stack) newSocket(local int, remote Addr, remotePort int) *Socket {
	s := &Socket{
		ID:         st.nextID,
		stack:      st,
		LocalPort:  local,
		Remote:     remote,
		RemotePort: remotePort,
		rto:        st.RTOInitial,
	}
	s.rtoTimer = simtime.NewTimer(st.clock, s.onTimer)
	st.nextID++
	st.byID[s.ID] = s
	st.sockets[connKey{remote, remotePort, local}] = s
	return s
}

// Connect opens a connection to remote:port. The returned socket is in
// SynSent; OnConnect fires when established. SYN loss is retried with
// exponential backoff (1 s, 2 s, 4 s), reproducing the multi-second
// connection-establishment delays dropped SYNs cause (§V-C).
func (st *Stack) Connect(remote Addr, port int, onConnect func(*Socket)) *Socket {
	s := st.newSocket(st.allocPort(), remote, port)
	s.State = StateSynSent
	s.OnConnect = onConnect
	iss := uint32(s.ID) * 100000
	s.sndUna, s.sndNxt, s.recover = iss, iss+1, iss
	st.emit(s, FlagSYN, iss, 0, nil, nil)
	st.armSynTimer(s)
	return s
}

func (st *Stack) allocPort() int {
	p := st.nextPort
	st.nextPort++
	return p
}

func (st *Stack) armSynTimer(s *Socket) {
	s.synTimer = true
	s.rtoTimer.Reset(st.RTOInitial << uint(s.synTries))
}

// onSynTimeout retries a SYN with exponential backoff, and resets the
// connection after the last retry.
func (st *Stack) onSynTimeout(s *Socket) {
	if s.State != StateSynSent {
		return
	}
	s.synTries++
	if s.synTries > 4 {
		s.State = StateClosed
		s.Reset = true
		st.drop(s)
		if s.OnReset != nil {
			s.OnReset(s)
		}
		return
	}
	st.emit(s, FlagSYN, s.sndUna, 0, nil, nil)
	st.armSynTimer(s)
}

// Send slabs grow geometrically between these sizes, so a mostly idle
// socket holds a small slab and a busy one allocates rarely. A Send
// larger than maxSendSlab gets a slab of exactly its size.
const (
	minSendSlab = 2 << 10
	maxSendSlab = 64 << 10
)

// Send queues data for transmission and emits it in MSS-sized segments.
// Bytes stay in the write queue until acknowledged. Send writes data
// into the socket's send slab at most once, so the caller may reuse its
// buffer at once; the segments, their retransmissions and the payloads
// the receiver reads are all views of the slab, and each segment holds
// it until acknowledged. Data the caller already wrote into the slab
// through SendBuffer is not copied at all. OnAppSend's observer may keep
// what it is shown, so a slab it is shown a view of is pinned.
func (s *Socket) Send(data []byte) {
	if s.State != StateEstablished && s.State != StateCloseWait {
		return
	}
	if s.stack.OnAppSend != nil {
		if Adjoins(s.slab, data) {
			s.slabRef.Hold(1)
		}
		s.stack.OnAppSend(s, data)
	}
	buf := s.stage(data)
	for len(buf) > 0 {
		n := min(s.stack.MSS, len(buf))
		chunk := buf[:n]
		sg := segment{seq: s.sndNxt, data: chunk, slab: s.slabRef}
		sg.slab.Hold(1)
		s.queue(sg)
		s.sndNxt += uint32(n)
		s.stack.emit(s, FlagACK, sg.seq, s.rcvNxt, chunk, sg.slab)
		buf = buf[n:]
	}
	s.startRTO(s.rto)
}

// SendBuffer returns the send slab's empty tail with room for at least
// n bytes, starting a new slab if the current one lacks it. A caller
// that appends a message to the tail and passes the result to Send
// sends it without a copy: Send finds the bytes already where the
// slab's next bytes go and only advances the slab over them. The tail
// is valid until the next Send or SendBuffer on s; appending past its
// capacity moves the message to another array, which Send then copies.
func (s *Socket) SendBuffer(n int) []byte {
	if cap(s.slab)-len(s.slab) < n {
		s.replaceSlab(max(n, s.nextSlabSize()))
	}
	return s.slab[len(s.slab):len(s.slab)]
}

// replaceSlab lets go of the current send slab and takes one with room
// for n bytes, recycled if the free list has one.
func (s *Socket) replaceSlab(n int) {
	s.slabRef.Drop()
	sl := newSlab(n)
	sl.Hold(1)
	s.slab, s.slabRef = sl.buf, sl
}

// nextSlabSize is the size of the socket's next send slab: twice the
// last one, between minSendSlab and maxSendSlab.
func (s *Socket) nextSlabSize() int {
	return min(max(2*cap(s.slab), minSendSlab), maxSendSlab)
}

// stage puts data into the send slab and returns the slab's view of it.
// Data that SendBuffer's tail already holds only advances the slab;
// anything else is copied, into a new slab when the current one lacks
// the room (of exactly len(data) bytes when that is more than the next
// slab size).
func (s *Socket) stage(data []byte) []byte {
	start := len(s.slab)
	if Adjoins(s.slab, data) {
		s.slab = s.slab[:start+len(data)]
		return s.slab[start:]
	}
	if cap(s.slab)-start < len(data) {
		s.replaceSlab(max(len(data), s.nextSlabSize()))
		start = 0
	}
	s.slab = append(s.slab, data...)
	return s.slab[start:]
}

// Adjoins reports whether b starts exactly where a ends, inside a's
// capacity: the same array, so a[:len(a)+len(b)] is a view of a's bytes
// followed by b's, with nothing copied. It is how a view of a send slab
// (a read queue, a frame reader's buffer) grows over the next one. It
// is asked only of a view whose slab is held, so the array cannot have
// been recycled under it.
func Adjoins(a, b []byte) bool {
	return len(b) > 0 && cap(a)-len(a) >= len(b) && &a[:len(a)+1][len(a)] == &b[0]
}

// queue appends sg to the write queue.
func (s *Socket) queue(sg segment) {
	if n := len(s.sendQ); n == cap(s.sendQ) {
		if free := cap(s.sendArr) - n; n > 0 && 2*free >= cap(s.sendArr) {
			// The window reached the array's end with at least half the
			// array free before it: move it back to the front, dropping
			// the stale references it leaves behind.
			q := s.sendArr[:n]
			copy(q, s.sendQ)
			clear(s.sendArr[n:cap(s.sendArr)])
			s.sendQ = q
		} else {
			// Mostly full: move to a larger array.
			s.sendQ = slices.Grow(s.sendQ, 1)
			s.sendArr = s.sendQ[:0]
		}
	}
	s.sendQ = append(s.sendQ, sg)
}

// Close sends FIN after all queued data.
func (s *Socket) Close() {
	if s.State != StateEstablished {
		return
	}
	s.State = StateFinWait
	sg := segment{seq: s.sndNxt, fin: true}
	s.queue(sg)
	s.sndNxt++
	s.stack.emit(s, FlagFIN|FlagACK, sg.seq, s.rcvNxt, nil, nil)
	s.startRTO(s.rto)
}

// Available returns the number of unread bytes in the read queue.
func (s *Socket) Available() int { return len(s.recvBuf) }

// ReadAll drains and returns the read queue. The caller may keep the
// slice: the socket never writes it again, and its slab is pinned, never
// recycled. Its capacity may reach into the sender's send slab, so the
// caller must not append to it; the one way to grow it is in place,
// over a later slice that adjoins it.
func (s *Socket) ReadAll() []byte {
	b, _ := s.ReadHeld()
	return b
}

// ReadHeld drains the read queue and returns it with the send slab it
// views (nil when the socket copied it into a buffer of its own, which
// nobody recycles). The caller takes over the socket's hold on the
// slab and drops it where it lets go of the bytes; until then the rules
// of ReadAll apply.
func (s *Socket) ReadHeld() ([]byte, *Slab) {
	b, sl := s.recvBuf, s.recvSlab
	s.recvBuf, s.recvSlab, s.recvOwn = nil, nil, false
	return b, sl
}

// UnackedBytes returns the size of the write queue.
func (s *Socket) UnackedBytes() int {
	n := 0
	for _, sg := range s.sendQ {
		n += len(sg.data)
	}
	return n
}

// startRTO arms the retransmission timer to fire after d unless one is
// already running: a send starts the timer only when none is running
// (RFC 6298 §5.1), so data sent while earlier data is outstanding does
// not push the timeout out. Nothing is armed for an empty write queue
// or a socket in repair mode.
func (s *Socket) startRTO(d simtime.Duration) {
	if s.rtoTimer.Armed() || len(s.sendQ) == 0 || s.repair {
		return
	}
	s.synTimer = false
	s.rtoTimer.Reset(d)
}

// stopRTO cancels the retransmission timer if one is running.
func (s *Socket) stopRTO() { s.rtoTimer.Stop() }

// onTimer runs the timeout the timer was armed for.
func (s *Socket) onTimer() {
	if s.synTimer {
		s.stack.onSynTimeout(s)
		return
	}
	s.onRTO()
}

// onRTO is the retransmission timeout: resend the write queue, back the
// timeout off, and run the timer again.
func (s *Socket) onRTO() {
	if len(s.sendQ) == 0 || s.repair || s.State == StateClosed {
		return
	}
	s.resend()
	if s.rto < 8*simtime.Second {
		s.rto *= 2
	}
	s.startRTO(s.rto)
}

// resend retransmits the whole write queue from sndUna (Go-Back-N: the
// receiver discards out-of-order segments, so everything after a loss
// must be sent again).
func (s *Socket) resend() {
	for _, sg := range s.sendQ {
		flags := FlagACK
		if sg.fin {
			flags |= FlagFIN
		}
		s.stack.emit(s, flags, sg.seq, s.rcvNxt, sg.data, sg.slab)
		s.retransmit++
	}
}

// onDupAck counts a duplicate ACK and, on the third, fast-retransmits
// the write queue (RFC 5681 §3.2) without backing off the RTO. The
// recover point (RFC 6582) keeps the duplicates that Go-Back-N itself
// provokes from triggering another fast retransmit before the
// cumulative ACK passes the data outstanding at this one.
func (s *Socket) onDupAck() {
	s.dupAcks++
	if s.dupAcks == 3 && seqLT(s.recover, s.sndUna) {
		s.recover = s.sndNxt
		s.resend()
	}
}

// Retransmits returns how many segments this socket retransmitted.
func (s *Socket) Retransmits() int { return s.retransmit }

func (st *Stack) emit(s *Socket, flags int, seq, ack uint32, payload []byte, slab *Slab) {
	if s.repair {
		return
	}
	if st.out == nil {
		return
	}
	st.tx = Packet{
		Kind: KindTCP, Src: st.IP, Dst: s.Remote,
		SrcPort: s.LocalPort, DstPort: s.RemotePort,
		Flags: flags, Seq: seq, Ack: ack, Payload: payload, slab: slab,
	}
	st.out(&st.tx)
	st.tx = Packet{}
}

func (st *Stack) sendRST(to *Packet) {
	st.rstSent++
	if st.out == nil {
		return
	}
	st.tx = Packet{
		Kind: KindTCP, Src: st.IP, Dst: to.Src,
		SrcPort: to.DstPort, DstPort: to.SrcPort,
		Flags: FlagRST, Seq: to.Ack, Ack: to.Seq + uint32(len(to.Payload)),
	}
	st.out(&st.tx)
	st.tx = Packet{}
}

func (st *Stack) drop(s *Socket) {
	delete(st.sockets, connKey{s.Remote, s.RemotePort, s.LocalPort})
	delete(st.byID, s.ID)
	s.stopRTO()
}

// Receive is the stack's ingress entry point. It reads pkt and keeps
// no pointer to it.
func (st *Stack) Receive(pkt *Packet) {
	if pkt.Kind != KindTCP {
		return
	}
	s := st.sockets[connKey{pkt.Src, pkt.SrcPort, pkt.DstPort}]
	if s == nil {
		if pkt.Flags&FlagSYN != 0 && pkt.Flags&FlagACK == 0 {
			if l := st.listeners[pkt.DstPort]; l != nil {
				st.accept(l, pkt)
				return
			}
		}
		if pkt.Flags&FlagRST == 0 {
			// No socket for an arriving packet: the kernel answers with
			// RST. This is exactly what breaks connections if input is
			// not blocked during recovery (§III).
			st.sendRST(pkt)
		}
		return
	}
	st.handle(s, pkt)
}

func (st *Stack) accept(l *Listener, syn *Packet) {
	s := st.newSocket(syn.DstPort, syn.Src, syn.SrcPort)
	s.State = StateSynRcvd
	s.rcvNxt = syn.Seq + 1
	iss := uint32(s.ID)*100000 + 50000
	s.sndUna, s.sndNxt, s.recover = iss, iss+1, iss
	s.acceptCb = l.OnAccept
	st.emit(s, FlagSYN|FlagACK, iss, s.rcvNxt, nil, nil)
}

func (st *Stack) handle(s *Socket, pkt *Packet) {
	if pkt.Flags&FlagRST != 0 {
		s.State = StateClosed
		s.Reset = true
		st.drop(s)
		if s.OnReset != nil {
			s.OnReset(s)
		}
		return
	}

	switch s.State {
	case StateSynSent:
		if pkt.Flags&FlagSYN != 0 && pkt.Flags&FlagACK != 0 && pkt.Ack == s.sndNxt {
			s.State = StateEstablished
			s.rcvNxt = pkt.Seq + 1
			s.sndUna = pkt.Ack
			s.rto = st.RTOMin
			s.stopRTO()
			st.emit(s, FlagACK, s.sndNxt, s.rcvNxt, nil, nil)
			if s.OnConnect != nil {
				s.OnConnect(s)
			}
		}
		return
	case StateSynRcvd:
		if pkt.Flags&FlagACK != 0 && pkt.Ack == s.sndNxt {
			s.State = StateEstablished
			s.rto = st.RTOMin
			if s.acceptCb != nil {
				s.acceptCb(s)
			}
			// The handshake ACK may carry data; fall through.
		} else if pkt.Flags&FlagSYN != 0 {
			// Duplicate SYN (our SYN-ACK was lost/blocked): re-answer.
			st.emit(s, FlagSYN|FlagACK, s.sndUna, s.rcvNxt, nil, nil)
			return
		} else {
			return
		}
	}

	// ACK processing: a new ACK drops fully acknowledged segments and
	// restarts the timer, or stops it once everything is acknowledged
	// (RFC 6298 §5.2–5.3); a pure ACK for sndUna while data is
	// outstanding is a duplicate.
	switch {
	case pkt.Flags&FlagACK == 0:
	case seqLT(s.sndUna, pkt.Ack) && seqLE(pkt.Ack, s.sndNxt):
		s.sndUna = pkt.Ack
		s.dupAcks = 0
		i := 0
		for ; i < len(s.sendQ); i++ {
			if seqLT(pkt.Ack, s.sendQ[i].end()) {
				break
			}
		}
		// Drop the acknowledged segments' holds on and references to
		// sent bytes; an empty queue starts again at its array's front.
		for _, sg := range s.sendQ[:i] {
			sg.slab.Drop()
		}
		clear(s.sendQ[:i])
		if i == len(s.sendQ) {
			s.sendQ = s.sendArr
		} else {
			s.sendQ = s.sendQ[i:]
		}
		s.stopRTO()
		if len(s.sendQ) == 0 {
			s.rto = st.RTOMin
			if s.State == StateFinWait {
				s.State = StateClosed
				st.drop(s)
				if s.OnClose != nil {
					s.OnClose(s)
				}
				return
			}
		}
		s.startRTO(s.rto)
	case pkt.Flags == FlagACK && len(pkt.Payload) == 0 && pkt.Ack == s.sndUna && len(s.sendQ) > 0 && !s.repair:
		s.onDupAck()
	}

	// Data processing (in-order only; out-of-order segments are dropped
	// and recovered by retransmission — Go-Back-N).
	if len(pkt.Payload) > 0 {
		seq := pkt.Seq
		payload := pkt.Payload
		if seqLT(seq, s.rcvNxt) {
			// Duplicate or partial overlap: skip what we already have.
			skip := s.rcvNxt - seq
			if uint32(len(payload)) <= skip {
				st.emit(s, FlagACK, s.sndNxt, s.rcvNxt, nil, nil) // pure dup: re-ACK
				return
			}
			payload = payload[skip:]
			seq = s.rcvNxt
		}
		if seq == s.rcvNxt {
			switch {
			case len(s.recvBuf) == 0:
				// Nobody writes a sent byte again while it is held, so
				// the payload itself becomes the read queue.
				s.recvBuf, s.recvSlab, s.recvOwn = payload, pkt.slab, false
				pkt.slab.Hold(1)
			case !s.recvOwn && Adjoins(s.recvBuf, payload):
				// The next segment of the same slab: extend in place.
				s.recvBuf = s.recvBuf[:len(s.recvBuf)+len(payload)]
			case s.recvOwn:
				s.recvBuf = append(s.recvBuf, payload...)
			default:
				// Never append into an adopted payload: copy into a
				// buffer of the socket's own.
				s.recvBuf = append(s.recvBuf[:len(s.recvBuf):len(s.recvBuf)], payload...)
				s.recvSlab.Drop()
				s.recvSlab, s.recvOwn = nil, true
			}
			s.rcvNxt += uint32(len(payload))
			st.emit(s, FlagACK, s.sndNxt, s.rcvNxt, nil, nil)
			if s.OnData != nil {
				s.OnData(s)
			}
		} else {
			// Gap: dup-ACK for what we expect.
			st.emit(s, FlagACK, s.sndNxt, s.rcvNxt, nil, nil)
		}
	}

	if pkt.Flags&FlagFIN != 0 && pkt.Seq+uint32(len(pkt.Payload)) == s.rcvNxt ||
		pkt.Flags&FlagFIN != 0 && pkt.Seq == s.rcvNxt {
		s.rcvNxt++
		s.State = StateCloseWait
		st.emit(s, FlagACK, s.sndNxt, s.rcvNxt, nil, nil)
		if s.OnClose != nil {
			s.OnClose(s)
		}
	}
}
