package workloads

import (
	"fmt"

	"nilicon/internal/container"
	"nilicon/internal/simkernel"
	"nilicon/internal/simtime"
)

// Parsec is the non-interactive CPU/memory-intensive workload model used
// for streamcluster and swaptions (§VI, PARSEC native inputs): a fixed
// number of work units processed by ThreadsPer threads, each unit
// consuming UnitCPU and dirtying UnitDirty fresh pages of the thread's
// partition of the heap (wrapping around, so the same pages are
// re-dirtied epoch after epoch, as in the real kernels).
type Parsec struct {
	prof Profile
	ctr  *container.Container

	state *parsecState
	heap  *simkernel.VMA
	proc  *simkernel.Process
}

type parsecState struct {
	Completed int
	Cursors   []int // per-thread partition cursor
	HeapStart uint64
	Stamp     byte
	Errors    []string
}

func (st *parsecState) clone() *parsecState {
	cp := *st
	cp.Cursors = append([]int(nil), st.Cursors...)
	cp.Errors = append([]string(nil), st.Errors...)
	return &cp
}

// NewParsec builds a batch workload from a profile.
func NewParsec(prof Profile) *Parsec { return &Parsec{prof: prof} }

// SetWorkUnits resizes the input (long validation runs extend the work
// so the kernel is still executing when the fault hits).
func (pw *Parsec) SetWorkUnits(n int) { pw.prof.WorkUnits = n }

// Profile returns the calibrated profile.
func (pw *Parsec) Profile() Profile { return pw.prof }

// SnapshotState and RestoreState implement container.App.
func (pw *Parsec) SnapshotState() any  { return pw.state.clone() }
func (pw *Parsec) RestoreState(s any)  { pw.state = s.(*parsecState).clone() }
func (pw *Parsec) Done() bool          { return pw.state.Completed >= pw.prof.WorkUnits }
func (pw *Parsec) CompletedUnits() int { return pw.state.Completed }

// Errors returns restore- and run-time validation failures.
func (pw *Parsec) Errors() []string { return pw.state.Errors }

func (pw *Parsec) fail(msg string) error {
	pw.state.Errors = append(pw.state.Errors, msg)
	return fmt.Errorf("%s", msg)
}

// Install sets up the process, threads, and heap.
func (pw *Parsec) Install(ctr *container.Container) {
	pw.ctr = ctr
	pw.state = &parsecState{Cursors: make([]int, pw.prof.ThreadsPer)}
	ctr.App = pw
	p := ctr.AddProcess(pw.prof.Name, pw.prof.LibsPerProc)
	pw.proc = p
	pw.heap = p.Mem.Mmap(uint64(pw.prof.MemPages)*simkernel.PageSize,
		simkernel.ProtRead|simkernel.ProtWrite, "", ctr.ID)
	_ = p.Mem.Touch(pw.heap, 0, pw.prof.MemPages, 1)
	p.Mem.ConsumeTrackingOverhead()
	pw.state.HeapStart = pw.heap.Start
	for ti := 0; ti < pw.prof.ThreadsPer; ti++ {
		th := p.MainThread()
		if ti > 0 {
			th = p.NewThread()
		}
		pw.startThread(th, ti)
	}
}

// Reattach rebinds threads on a restored container. Restore-validation
// failures (no process, missing heap VMA) are recorded as app errors
// (the oracle surface) and returned; the kernel simply stays stopped.
func (pw *Parsec) Reattach(ctr *container.Container, appState any) error {
	pw.ctr = ctr
	pw.RestoreState(appState)
	ctr.App = pw
	if len(ctr.Procs) == 0 {
		return pw.fail("workloads: restored parsec container has no process")
	}
	p := ctr.Procs[0]
	pw.proc = p
	pw.heap = p.Mem.FindVMA(pw.state.HeapStart)
	if pw.heap == nil {
		return pw.fail("workloads: restored parsec heap not found")
	}
	for ti := 0; ti < pw.prof.ThreadsPer && ti < len(p.Threads); ti++ {
		pw.startThread(p.Threads[ti], ti)
	}
	return nil
}

func (pw *Parsec) startThread(th *simkernel.Thread, ti int) {
	part := pw.prof.MemPages / pw.prof.ThreadsPer
	base := ti * part
	pw.ctr.AddTask(th, func() (simtime.Duration, simtime.Duration) {
		if pw.Done() {
			th.InSyscall = false
			return 0, container.Blocked
		}
		pw.state.Completed++
		pw.state.Stamp++
		// Between computation phases the kernel issues memory-management
		// system calls; a freeze landing on such a quantum takes much
		// longer to settle (the Table IV stop-time tail).
		th.InSyscall = pw.state.Completed%(8*pw.prof.ThreadsPer) < pw.prof.ThreadsPer
		cur := pw.state.Cursors[ti]
		n := pw.prof.UnitDirty
		if n > part {
			n = part
		}
		if cur+n > part {
			cur = 0
		}
		if err := pw.proc.Mem.Touch(pw.heap, base+cur, n, pw.state.Stamp); err != nil {
			// A touch that faults means the restored address space does not
			// cover the working set — record it for the validation oracles
			// and park this thread instead of crashing the simulation.
			_ = pw.fail(fmt.Sprintf("workloads: parsec touch: %v", err))
			th.InSyscall = false
			return 0, container.Blocked
		}
		pw.state.Cursors[ti] = (cur + n) % part
		return pw.prof.UnitCPU, pw.prof.UnitCPU
	})
}
