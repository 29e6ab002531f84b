package workloads

import (
	"encoding/binary"
	"fmt"

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
	Index      map[uint64]int // key → record slot
	NextSlot   int
	HeapStarts []uint64 // per-process heap VMA base
	Pending    []pendingReq
	ReaderBufs map[connID][]byte
	WebCursors []int // per-worker response-buffer cursor
	Errors     []string
}

func (st *serverState) clone() *serverState {
	cp := &serverState{
		NextSlot:   st.NextSlot,
		Index:      make(map[uint64]int, len(st.Index)),
		HeapStarts: append([]uint64(nil), st.HeapStarts...),
		ReaderBufs: make(map[connID][]byte, len(st.ReaderBufs)),
		WebCursors: append([]int(nil), st.WebCursors...),
		Errors:     append([]string(nil), st.Errors...),
	}
	for k, v := range st.Index {
		cp.Index[k] = v
	}
	// Request payloads are immutable once parsed (the server reads and
	// drops them), so the snapshot shares them and copies only the
	// queue structure.
	cp.Pending = append([]pendingReq(nil), st.Pending...)
	for k, v := range st.ReaderBufs {
		cp.ReaderBufs[k] = append([]byte(nil), v...)
	}
	return cp
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
	readers map[connID]*FrameReader
	conns   map[connID]*simnet.Socket
	file    *simfs.Inode
	out     []byte // respond's frame buffer; Socket.Send copies it
	value   []byte // a GET's record, read from the heap; respond copies it

	processed int64
}

// NewServer builds a server workload from a profile.
func NewServer(prof Profile) *Server {
	return &Server{prof: prof}
}

// Profile returns the calibrated profile.
func (sv *Server) Profile() Profile { return sv.prof }

// Processed returns the number of requests processed by the server.
func (sv *Server) Processed() int64 { return sv.processed }

// State exposes the application state (for validation introspection).
func (sv *Server) State() *serverState { return sv.state }

// SnapshotState deep-copies the user-space state (container.App).
func (sv *Server) SnapshotState() any {
	// Partial frame bytes live in the reader objects; sync them into
	// the checkpointed state first.
	sv.state.ReaderBufs = make(map[connID][]byte, len(sv.readers))
	for id, fr := range sv.readers {
		if fr.Buffered() > 0 {
			sv.state.ReaderBufs[id] = append([]byte(nil), fr.buf[fr.off:]...)
		}
	}
	return sv.state.clone()
}

// RestoreState replaces the application state.
func (sv *Server) RestoreState(s any) { sv.state = s.(*serverState).clone() }

// Install sets the server up in a fresh container.
func (sv *Server) Install(ctr *container.Container) {
	sv.ctr = ctr
	sv.state = &serverState{
		Index:      make(map[uint64]int),
		ReaderBufs: make(map[connID][]byte),
	}
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
			simkernel.ProtRead|simkernel.ProtWrite, "", p.PID, ctr.ID)
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
		sv.conns[id] = s
		fr := &FrameReader{}
		if buf, ok := sv.state.ReaderBufs[id]; ok {
			fr.Feed(buf)
		}
		sv.readers[id] = fr
		s.OnData = sv.onData
		if s.Available() > 0 {
			sv.onData(s)
		}
	}
	sv.wakeWorkers()
	return reattachErr
}

// startBackground runs a non-worker process (reverse proxy, database
// helper) at the profile's duty cycle.
func (sv *Server) startBackground(p *simkernel.Process) {
	frac := sv.prof.BackgroundCPUFrac
	if frac <= 0 {
		frac = 0.05
	}
	const period = 10 * simtime.Millisecond
	busy := simtime.Duration(float64(period) * frac)
	sv.ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
		return busy, period
	})
}

func (sv *Server) accept(s *simnet.Socket) {
	id := connIDOf(s)
	sv.conns[id] = s
	sv.readers[id] = &FrameReader{}
	s.OnData = sv.onData
}

func (sv *Server) onData(s *simnet.Socket) {
	id := connIDOf(s)
	fr := sv.readers[id]
	if fr == nil {
		fr = &FrameReader{}
		sv.readers[id] = fr
		sv.conns[id] = s
	}
	fr.Feed(s.ReadAll())
	for {
		op, payload, ok := fr.Next()
		if !ok {
			break
		}
		sv.state.Pending = append(sv.state.Pending, pendingReq{Conn: id, Op: op, Payload: payload})
	}
	sv.wakeWorkers()
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
	req := sv.state.Pending[0]
	sv.state.Pending = sv.state.Pending[1:]
	cpu := sv.process(w, req)
	sv.processed++
	if len(sv.state.Pending) > 0 {
		return cpu, cpu
	}
	return cpu, container.Blocked
}

func (sv *Server) respond(id connID, op byte, payload []byte) {
	if s := sv.conns[id]; s != nil {
		sv.out = AppendFrame(sv.out[:0], op, payload)
		s.Send(sv.out)
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
		slot, ok := sv.state.Index[key]
		if !ok {
			slot = sv.state.NextSlot
			sv.state.NextSlot++
			sv.state.Index[key] = slot
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
		slot, ok := sv.state.Index[key]
		if !ok {
			sv.respond(req.Conn, OpGet, nil)
			return cpu
		}
		addr, fits := sv.slotAddr(w, slot)
		if !fits {
			sv.fail("index points past heap")
			return cpu
		}
		mem := sv.ctr.Procs[0].Mem
		value, err := mem.AppendRead(sv.value[:0], addr, recordSize)
		if err != nil {
			sv.fail("heap read: " + err.Error())
			return cpu
		}
		sv.value = value
		sv.respond(req.Conn, OpGet, value)
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
