package simnet

// TCP repair mode (§II-B): when a socket is placed in repair mode, its
// critical state — sequence numbers, acknowledgment numbers, the write
// queue (transmitted but not acknowledged) and the read queue (received
// but not read by the process) — can be read and written directly, and
// the socket emits no packets.

import "nilicon/internal/simtime"

// SegmentSnapshot is one write-queue segment in a socket checkpoint.
type SegmentSnapshot struct {
	Seq  uint32
	Data []byte
	FIN  bool
}

// SocketSnapshot is the repair-mode state of one TCP socket.
type SocketSnapshot struct {
	ID         int
	State      TCPState
	LocalPort  int
	Remote     Addr
	RemotePort int
	SndUna     uint32
	SndNxt     uint32
	RcvNxt     uint32
	WriteQueue []SegmentSnapshot
	ReadQueue  []byte
}

// Size returns the snapshot's transfer size in bytes (queues plus a
// fixed header), used for state-size accounting.
func (sn SocketSnapshot) Size() int64 {
	n := int64(64) // fixed fields
	for _, sg := range sn.WriteQueue {
		n += int64(len(sg.Data)) + 8
	}
	return n + int64(len(sn.ReadQueue))
}

// EnterRepair puts the socket in repair mode: no packets are emitted and
// pending timers are disarmed.
func (s *Socket) EnterRepair() {
	s.repair = true
	s.stopRTO()
}

// LeaveRepair exits repair mode. If repairRTOPatch is true, NiLiCon's
// two-line kernel change applies: the retransmission timeout of a socket
// leaving repair mode is set to the minimum (200 ms) instead of the
// fresh-socket default of at least one second (§V-E). If the write queue
// is non-empty the retransmission timer is armed so unacknowledged data
// reaches the client again after failover.
func (s *Socket) LeaveRepair(repairRTOPatch bool) {
	s.repair = false
	if repairRTOPatch {
		s.rto = s.stack.RTOMin
	} else {
		s.rto = s.stack.RTOInitial
	}
	if s.wasRestore {
		// Credit the time since the queue was repaired: the kernel armed
		// the timer then, and the remaining restore steps overlapped
		// with the countdown (this is why Table II's TCP component is
		// smaller than the full RTO).
		elapsed := s.stack.clock.Now().Sub(s.restoredAt)
		remaining := s.rto - elapsed
		if remaining < simtime.Millisecond {
			remaining = simtime.Millisecond
		}
		s.wasRestore = false
		s.startRTO(remaining)
		return
	}
	s.startRTO(s.rto)
}

// InRepair reports whether the socket is in repair mode.
func (s *Socket) InRepair() bool { return s.repair }

// SetRestoredAt adjusts the time the socket's queues are considered to
// have been repaired. Restore happens at a single instant in the event
// loop but spans real time on the host; the backup agent uses this to
// place the repair at the point within the restore window where it
// actually occurs, so the retransmission-timer credit in LeaveRepair is
// accurate (Table II's TCP component).
func (s *Socket) SetRestoredAt(t simtime.Time) {
	if s.wasRestore {
		s.restoredAt = t
	}
}

// SnapshotSocket collects a socket's repair-mode state, charging the
// per-socket and per-queued-byte costs to the stack's kernel meter.
func (st *Stack) SnapshotSocket(s *Socket) SocketSnapshot {
	queued := 0
	sn := SocketSnapshot{
		ID:         s.ID,
		State:      s.State,
		LocalPort:  s.LocalPort,
		Remote:     s.Remote,
		RemotePort: s.RemotePort,
		SndUna:     s.sndUna,
		SndNxt:     s.sndNxt,
		RcvNxt:     s.rcvNxt,
	}
	for _, sg := range s.sendQ {
		data := make([]byte, len(sg.data))
		copy(data, sg.data)
		sn.WriteQueue = append(sn.WriteQueue, SegmentSnapshot{Seq: sg.seq, Data: data, FIN: sg.fin})
		queued += len(sg.data)
	}
	sn.ReadQueue = make([]byte, len(s.recvBuf))
	copy(sn.ReadQueue, s.recvBuf)
	queued += len(s.recvBuf)

	if st.Kernel != nil {
		c := st.Kernel.Costs
		st.Kernel.Charge(c.SockRepairPerSocket + scaleKB(c.SockRepairPerKB, queued))
	}
	return sn
}

// RestoreSocket recreates a socket from a snapshot, in repair mode. The
// caller installs callbacks and then calls LeaveRepair. The restore cost
// is charged to the stack's kernel meter.
func (st *Stack) RestoreSocket(sn SocketSnapshot) *Socket {
	s := st.newSocket(sn.LocalPort, sn.Remote, sn.RemotePort)
	s.State = sn.State
	s.restoredAt = st.clock.Now()
	s.wasRestore = true
	s.sndUna = sn.SndUna
	s.sndNxt = sn.SndNxt
	s.rcvNxt = sn.RcvNxt
	// A restored socket is in no recovery episode: like a fresh one
	// (recover = ISS), it may fast-retransmit at once.
	s.recover = sn.SndUna - 1
	s.repair = true
	for _, sg := range sn.WriteQueue {
		data := make([]byte, len(sg.Data))
		copy(data, sg.Data)
		s.sendQ = append(s.sendQ, segment{seq: sg.Seq, data: data, fin: sg.FIN})
	}
	s.recvBuf = append(s.recvBuf, sn.ReadQueue...)
	if st.Kernel != nil {
		st.Kernel.Charge(st.Kernel.Costs.RestorePerSocket)
	}
	return s
}

func scaleKB(perKB simtime.Duration, bytes int) simtime.Duration {
	return perKB * simtime.Duration(bytes) / 1024
}
