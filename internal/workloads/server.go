package workloads

import (
	"encoding/binary"
	"fmt"
	"slices"

	"nilicon/internal/container"
	"nilicon/internal/simfs"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// recordSize is the KV record size (1 KB records, §VI).
const recordSize = 1024

// connID identifies a TCP connection across checkpoint/restore (socket
// object identities change at restore; the 4-tuple does not).
type connID string

// connIDOf formats s's id, once per connection: Server.bind keeps it.
func connIDOf(s *simnet.Socket) connID {
	return connID(fmt.Sprintf("%s:%d-%d", s.Remote, s.RemotePort, s.LocalPort))
}

// pendingReq is one parsed-but-unprocessed request.
type pendingReq struct {
	Conn    connID
	Op      byte
	Payload []byte
}

// serverState is the checkpointed application state of a Server. All
// fields are exported for clarity that they are part of the checkpoint.
type serverState struct {
	// Keys is the append-only record log: Keys[slot] is the key stored
	// in record slot slot. Slots are handed out in order and never
	// reused, so a snapshot shares the log's prefix instead of copying
	// it, and the key → slot index is derived state rebuilt on restore.
	Keys       []uint64
	HeapStarts []uint64 // per-process heap VMA base
	Pending    []pendingReq
	ReaderBufs map[connID][]byte
	WebCursors []int // per-worker response-buffer cursor
	Errors     []string
}

func (st *serverState) clone() *serverState {
	// Keys, HeapStarts and Errors are append-only (HeapStarts is set at
	// install and never changes after), so the snapshot shares them; the
	// capacity caps make the next append on either side copy, so neither
	// ever writes into the other's view. Pending is shared the same way,
	// copy-on-write: the live side's pushes append past the cap, and the
	// server moves its queue to a fresh array before it writes a slot
	// the snapshot may hold (Server.pendShared). Request payloads and
	// partial frames are stream bytes, which nobody writes again, and
	// the ReaderBufs map is built afresh by every SnapshotState, so both
	// are shared as they are.
	cp := &serverState{
		Keys:       st.Keys[:len(st.Keys):len(st.Keys)],
		HeapStarts: st.HeapStarts[:len(st.HeapStarts):len(st.HeapStarts)],
		Errors:     st.Errors[:len(st.Errors):len(st.Errors)],
		Pending:    st.Pending[:len(st.Pending):len(st.Pending)],
		ReaderBufs: st.ReaderBufs,
	}
	if len(st.WebCursors) > 0 {
		cp.WebCursors = append([]int(nil), st.WebCursors...)
	}
	return cp
}

// sameAs reports whether st holds the same state as snap, a snapshot
// taken of it earlier: the append-only lists have not grown, nothing is
// pending or buffered on either side, and the cursors match.
func (st *serverState) sameAs(snap *serverState) bool {
	return len(st.Keys) == len(snap.Keys) && len(st.Errors) == len(snap.Errors) &&
		len(st.HeapStarts) == len(snap.HeapStarts) &&
		len(st.Pending) == 0 && len(snap.Pending) == 0 &&
		len(st.ReaderBufs) == 0 && len(snap.ReaderBufs) == 0 &&
		slices.Equal(st.WebCursors, snap.WebCursors)
}

type worker struct {
	idx  int
	proc *simkernel.Process
	heap *simkernel.VMA
	task *container.Task
}

// Server is the generic request-processing engine behind the five
// server benchmarks. The KV data lives in real heap pages of the
// container's processes; persistence goes through the container's file
// system; all request processing runs on container tasks so it consumes
// container CPU, halts under the freezer, and contributes dirty pages.
type Server struct {
	prof Profile
	ctr  *container.Container

	workers []*worker
	state   *serverState
	index   map[uint64]int // key → record slot; derived from state.Keys
	readers map[connID]*FrameReader
	conns   map[connID]*simnet.Socket
	file    *simfs.Inode
	// lastSnap is the last snapshot SnapshotState returned, shared
	// again while the state stays the same (nil after a state change
	// of another kind: install or restore).
	lastSnap *serverState
	// pendArr is the array state.Pending is a window onto, from its
	// first element (nil while the window is not in an array the server
	// allocated: after install or restore). pendShared reports that a
	// snapshot may hold slots of it, so the queue writes no slot below
	// its end: it neither clears popped slots nor compacts nor restarts
	// at the front, and moves to a fresh array instead.
	pendArr    []pendingReq
	pendShared bool
}

// NewServer builds a server workload from a profile.
func NewServer(prof Profile) *Server {
	return &Server{prof: prof}
}

// Profile returns the calibrated profile.
func (sv *Server) Profile() Profile { return sv.prof }

// State exposes the application state (for validation introspection).
func (sv *Server) State() *serverState { return sv.state }

// SnapshotState copies the user-space state (container.App). The
// record log is shared by prefix, so a snapshot costs O(connections
// and pending requests), not O(keys).
func (sv *Server) SnapshotState() any {
	// Partial frame bytes live in the reader objects; sync them into
	// the checkpointed state first.
	sv.state.ReaderBufs = nil
	for id, fr := range sv.readers {
		if fr.Buffered() > 0 {
			if sv.state.ReaderBufs == nil {
				sv.state.ReaderBufs = make(map[connID][]byte)
			}
			sv.state.ReaderBufs[id] = fr.buf[fr.off:len(fr.buf):len(fr.buf)]
		}
	}
	if last := sv.lastSnap; last != nil && sv.state.sameAs(last) {
		// Nothing changed since the last snapshot, which is read-only:
		// share it.
		return last
	}
	sv.lastSnap = sv.state.clone()
	sv.pendShared = sv.pendShared || len(sv.state.Pending) > 0
	return sv.lastSnap
}

// RestoreState replaces the application state and rebuilds the key
// index from the record log (O(keys), once per restore).
func (sv *Server) RestoreState(s any) {
	sv.state = s.(*serverState).clone()
	sv.lastSnap = nil
	sv.pendArr, sv.pendShared = nil, len(sv.state.Pending) > 0
	sv.index = make(map[uint64]int, len(sv.state.Keys))
	for slot, key := range sv.state.Keys {
		sv.index[key] = slot
	}
}

// Install sets the server up in a fresh container.
func (sv *Server) Install(ctr *container.Container) {
	sv.ctr = ctr
	sv.state = &serverState{}
	sv.lastSnap = nil
	sv.pendArr, sv.pendShared = nil, false
	sv.index = make(map[uint64]int)
	sv.readers = make(map[connID]*FrameReader)
	sv.conns = make(map[connID]*simnet.Socket)
	ctr.App = sv

	if sv.prof.FSBytesPerWrite > 0 {
		sv.file = ctr.FS.Create("/data/store")
		sv.file.Sync = sv.prof.SyncFS
	}

	workerProcs := sv.prof.WorkerProcs
	if workerProcs <= 0 {
		workerProcs = sv.prof.Procs
	}
	for pi := 0; pi < sv.prof.Procs; pi++ {
		p := ctr.AddProcess(fmt.Sprintf("%s-%d", sv.prof.Name, pi), sv.prof.LibsPerProc)
		heap := p.Mem.Mmap(uint64(sv.prof.MemPages)*simkernel.PageSize,
			simkernel.ProtRead|simkernel.ProtWrite, "", ctr.ID)
		_ = p.Mem.Touch(heap, 0, sv.prof.MemPages, 0xEE) // prefault
		p.Mem.ConsumeTrackingOverhead()                  // setup faults are not runtime overhead
		sv.state.HeapStarts = append(sv.state.HeapStarts, heap.Start)
		if pi >= workerProcs {
			sv.startBackground(p)
			continue
		}
		for ti := 0; ti < sv.prof.ThreadsPer; ti++ {
			th := p.MainThread()
			if ti > 0 {
				th = p.NewThread()
			}
			w := &worker{idx: len(sv.workers), proc: p, heap: heap}
			w.task = ctr.AddTask(th, func() (simtime.Duration, simtime.Duration) { return sv.step(w) })
			sv.workers = append(sv.workers, w)
			sv.state.WebCursors = append(sv.state.WebCursors, 0)
		}
	}
	ctr.Stack.Listen(sv.prof.Port, sv.accept)
}

// Reattach rebuilds the server on a restored container. A missing heap
// VMA is a restore-validation failure: it is recorded as an app error
// (the oracle surface) and returned, and the affected process serves no
// requests rather than crashing the failover path.
func (sv *Server) Reattach(ctr *container.Container, appState any) error {
	sv.ctr = ctr
	sv.RestoreState(appState)
	sv.readers = make(map[connID]*FrameReader)
	sv.conns = make(map[connID]*simnet.Socket)
	ctr.App = sv
	if sv.prof.FSBytesPerWrite > 0 {
		sv.file = ctr.FS.Open("/data/store")
		if sv.file == nil {
			sv.file = ctr.FS.Create("/data/store")
			sv.file.Sync = sv.prof.SyncFS
		}
	}

	// Workers bind to the restored processes; heap VMA bases come from
	// the checkpointed state.
	sv.workers = nil
	procs := ctr.Procs
	workerProcs := sv.prof.WorkerProcs
	if workerProcs <= 0 {
		workerProcs = sv.prof.Procs
	}
	var reattachErr error
	wi := 0
	for pi := 0; pi < sv.prof.Procs && pi < len(procs); pi++ {
		p := procs[pi]
		var heap *simkernel.VMA
		if pi < len(sv.state.HeapStarts) {
			heap = p.Mem.FindVMA(sv.state.HeapStarts[pi])
		}
		if heap == nil {
			reattachErr = fmt.Errorf("workloads: %s restore: heap VMA for process %d not found", sv.prof.Name, pi)
			sv.fail(reattachErr.Error())
			continue
		}
		if pi >= workerProcs {
			sv.startBackground(p)
			continue
		}
		for ti := 0; ti < sv.prof.ThreadsPer; ti++ {
			if ti >= len(p.Threads) {
				break
			}
			w := &worker{idx: wi, proc: p, heap: heap}
			w.task = ctr.AddTask(p.Threads[ti], func() (simtime.Duration, simtime.Duration) { return sv.step(w) })
			sv.workers = append(sv.workers, w)
			wi++
		}
	}

	// Re-install network handlers: listener and per-connection OnData;
	// re-hydrate partial frame buffers; requests that were parsed but
	// unprocessed at the checkpoint are still in state.Pending.
	ctr.Stack.Unlisten(sv.prof.Port)
	ctr.Stack.Listen(sv.prof.Port, sv.accept)
	for _, s := range ctr.Stack.Sockets() {
		id := connIDOf(s)
		fr := sv.bind(id, s)
		if buf, ok := sv.state.ReaderBufs[id]; ok {
			fr.Feed(buf)
		}
		if s.Available() > 0 {
			sv.onData(id, fr, s)
		}
	}
	sv.wakeWorkers()
	return reattachErr
}

// startBackground runs a non-worker process (reverse proxy, database
// helper) at the profile's duty cycle.
func (sv *Server) startBackground(p *simkernel.Process) {
	const period = 10 * simtime.Millisecond
	busy := simtime.Duration(float64(period) * sv.prof.BackgroundCPUFrac)
	sv.ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
		return busy, period
	})
}

func (sv *Server) accept(s *simnet.Socket) { sv.bind(connIDOf(s), s) }

// bind registers a connection under its id and installs its data
// handler. The id and the frame reader are bound into the handler once,
// so no segment formats an id or looks its reader up.
func (sv *Server) bind(id connID, s *simnet.Socket) *FrameReader {
	fr := &FrameReader{}
	sv.conns[id] = s
	sv.readers[id] = fr
	s.OnData = func(s *simnet.Socket) { sv.onData(id, fr, s) }
	return fr
}

func (sv *Server) onData(id connID, fr *FrameReader, s *simnet.Socket) {
	fr.Feed(s.ReadAll())
	for {
		op, payload, ok := fr.Next()
		if !ok {
			break
		}
		sv.push(pendingReq{Conn: id, Op: op, Payload: payload})
	}
	sv.wakeWorkers()
}

// push queues req. A window that has reached its array's end moves
// back to the front once half the array is free, as fifo.Queue does,
// unless a snapshot may hold the array's slots: then, as when most of
// the array is in use, the queue moves to a fresh array.
func (sv *Server) push(req pendingReq) {
	q := sv.state.Pending
	if n := len(q); n == cap(q) {
		if arr := sv.pendArr; n > 0 && !sv.pendShared && 2*(cap(arr)-n) >= cap(arr) {
			q = arr[:n]
			copy(q, sv.state.Pending)
			clear(arr[n:cap(arr)])
		} else {
			q = make([]pendingReq, n, max(2*n, cap(arr), 16))
			copy(q, sv.state.Pending)
			sv.pendArr, sv.pendShared = q[:0], false
		}
	}
	sv.state.Pending = append(q, req)
}

// pop removes and returns the oldest queued request; the queue must not
// be empty. An emptied queue starts again at its array's front, unless
// a snapshot may hold that array's slots.
func (sv *Server) pop() pendingReq {
	q := sv.state.Pending
	req := q[0]
	switch {
	case sv.pendShared:
		sv.state.Pending = q[1:]
	case len(q) == 1:
		q[0] = pendingReq{}
		sv.state.Pending = sv.pendArr[:0]
	default:
		q[0] = pendingReq{} // drop the reference to the request's bytes
		sv.state.Pending = q[1:]
	}
	return req
}

func (sv *Server) wakeWorkers() {
	if len(sv.state.Pending) == 0 {
		return
	}
	for _, w := range sv.workers {
		w.task.Wake()
	}
}

// step is one worker scheduling quantum: exactly one request. One
// request per step keeps request processing atomic with respect to
// checkpoints (the freezer lands between steps, so a checkpoint always
// sees request consumption, state mutation and response enqueueing
// together — the invariant exactly-once failover semantics rely on) and
// gives correct closed-loop queueing behaviour: the worker's next step
// is gated by this request's CPU time.
func (sv *Server) step(w *worker) (simtime.Duration, simtime.Duration) {
	if len(sv.state.Pending) == 0 {
		return 0, container.Blocked
	}
	cpu := sv.process(w, sv.pop())
	if len(sv.state.Pending) > 0 {
		return cpu, cpu
	}
	return cpu, container.Blocked
}

// respond sends one reply frame, written straight into the socket's send
// slab.
func (sv *Server) respond(id connID, op byte, payload []byte) {
	if s := sv.conns[id]; s != nil {
		s.Send(AppendFrame(s.SendBuffer(frameLen(len(payload))), op, payload))
	}
}

// reservedPages is the heap prefix holding KV records; the allocator
// churn window sits above it so stamping never corrupts record data.
func (sv *Server) reservedPages() int {
	if sv.prof.Records <= 0 {
		return 0
	}
	return (sv.prof.Records*recordSize + simkernel.PageSize - 1) / simkernel.PageSize
}

// churn dirties ReqDirty pages in the worker's churn window (internal
// data-structure and response-buffer turnover).
func (sv *Server) churn(w *worker, stamp byte) {
	n := sv.prof.ReqDirty
	if n <= 0 {
		return
	}
	lo := sv.reservedPages()
	span := sv.prof.MemPages - lo - n
	if span < 1 {
		return
	}
	cur := sv.state.WebCursors[w.idx] % span
	_ = w.proc.Mem.Touch(w.heap, lo+cur, n, stamp)
	sv.state.WebCursors[w.idx] = (cur + n) % span
}

func (sv *Server) slotAddr(w *worker, slot int) (addr uint64, ok bool) {
	base := sv.state.HeapStarts[0] // KV records live in process 0's heap
	off := uint64(slot) * recordSize
	limit := uint64(sv.prof.MemPages) * simkernel.PageSize
	if r := sv.reservedPages(); r > 0 {
		limit = uint64(r) * simkernel.PageSize
	}
	if off+recordSize > limit {
		return 0, false
	}
	return base + off, true
}

func (sv *Server) process(w *worker, req pendingReq) simtime.Duration {
	cpu := sv.prof.ReqCPU
	switch req.Op {
	case OpSet:
		if len(req.Payload) < 8 {
			sv.fail("short SET payload")
			return cpu
		}
		key := binary.BigEndian.Uint64(req.Payload)
		value := req.Payload[8:]
		slot, ok := sv.index[key]
		if !ok {
			slot = len(sv.state.Keys)
			sv.state.Keys = append(sv.state.Keys, key)
			sv.index[key] = slot
		}
		addr, fits := sv.slotAddr(w, slot)
		if !fits {
			sv.fail(fmt.Sprintf("heap full at slot %d", slot))
			return cpu
		}
		// KV data lives in process 0's address space.
		mem := sv.ctr.Procs[0].Mem
		if err := mem.Write(addr, value); err != nil {
			sv.fail("heap write: " + err.Error())
			return cpu
		}
		if sv.file != nil && sv.prof.FSBytesPerWrite > 0 {
			n := sv.prof.FSBytesPerWrite
			if n > len(value) {
				n = len(value)
			}
			_ = sv.ctr.FS.WriteAt(sv.file, int64(slot)*recordSize, value[:n])
			cpu += sv.prof.DiskWriteLat
		}
		// Internal data-structure churn per write (dict entries,
		// allocator metadata) dirties additional pages.
		sv.churn(w, byte(key))
		sv.respond(req.Conn, OpSet, okReply)
	case OpGet:
		if len(req.Payload) < 8 {
			sv.fail("short GET payload")
			return cpu
		}
		key := binary.BigEndian.Uint64(req.Payload)
		slot, ok := sv.index[key]
		if !ok {
			sv.respond(req.Conn, OpGet, nil)
			return cpu
		}
		addr, fits := sv.slotAddr(w, slot)
		if !fits {
			sv.fail("index points past heap")
			return cpu
		}
		// The record goes from the heap straight into the reply frame
		// in the socket's send slab.
		var frame []byte
		s := sv.conns[req.Conn]
		if s != nil {
			frame = appendFrameHeader(s.SendBuffer(frameLen(recordSize)), OpGet, recordSize)
		}
		frame, err := sv.ctr.Procs[0].Mem.AppendRead(frame, addr, recordSize)
		if err != nil {
			sv.fail("heap read: " + err.Error())
			return cpu
		}
		if s != nil {
			s.Send(frame)
		}
	case OpWeb:
		if len(req.Payload) < 4 {
			sv.fail("short WEB payload")
			return cpu
		}
		pathID := binary.BigEndian.Uint32(req.Payload)
		// Generating the response dirties the worker's buffers.
		sv.churn(w, byte(pathID))
		if sv.file != nil && sv.prof.FSBytesPerWrite > 0 {
			// Session/DB write (DJCMS's MySQL).
			slot := int(pathID) % 4096
			_ = sv.ctr.FS.WriteAt(sv.file, int64(slot)*256, ValueFor(uint64(pathID), 0, sv.prof.FSBytesPerWrite))
			cpu += sv.prof.DiskWriteLat
		}
		sv.respond(req.Conn, OpWeb, PageFor(pathID, sv.prof.RespKB<<10))
	case OpEcho:
		// The server parks the message on its stack before echoing
		// (§VII-A's second microbenchmark).
		pages := (len(req.Payload) + simkernel.PageSize - 1) / simkernel.PageSize
		if pages > 0 {
			if pages > sv.prof.MemPages {
				pages = sv.prof.MemPages
			}
			_ = w.proc.Mem.Touch(w.heap, 0, pages, req.Payload[0])
		}
		cpu += simtime.Duration(len(req.Payload)) * simtime.Nanosecond / 5
		sv.respond(req.Conn, OpEcho, req.Payload)
	default:
		sv.fail(fmt.Sprintf("unknown op %q", req.Op))
	}
	return cpu
}

func (sv *Server) fail(msg string) {
	sv.state.Errors = append(sv.state.Errors, msg)
}

// AppErrors returns server-side validation failures.
func (sv *Server) AppErrors() []string { return sv.state.Errors }
