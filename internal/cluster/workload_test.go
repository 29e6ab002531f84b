package cluster

import (
	"nilicon/internal/container"
	"nilicon/internal/simkernel"
	"nilicon/internal/simtime"
)

// dirtyLoop is the cluster tests' fleet workload: one process with a
// 64-page anonymous mapping and a task that dirties a few pages every
// couple of milliseconds. It keeps every epoch's checkpoint non-trivial
// (real dirty pages on the shared NIC) and its sequence counter survives
// failover via the App state, so tests can assert progress across
// recoveries.
type dirtyLoop struct {
	seed int64
	proc *simkernel.Process
	vma  *simkernel.VMA
	seq  uint64
}

// dirtyLoops is the factory newTestFleet installs: pair i's loop gets
// seed+i (the seed only perturbs the touch pattern; determinism never
// depends on it).
func dirtyLoops(seed int64) WorkloadFactory {
	return func(string) Workload {
		d := &dirtyLoop{seed: seed}
		seed++
		return d
	}
}

// SnapshotState implements container.App.
func (d *dirtyLoop) SnapshotState() any { return d.seq }

// RestoreState implements container.App.
func (d *dirtyLoop) RestoreState(s any) { d.seq = s.(uint64) }

// Install implements Workload.
func (d *dirtyLoop) Install(ctr *container.Container) {
	proc := ctr.AddProcess("dirtyloop", 2)
	d.proc = proc
	d.vma = proc.Mem.Mmap(64*simkernel.PageSize,
		simkernel.ProtRead|simkernel.ProtWrite, "", ctr.ID)
	_ = proc.Mem.Touch(d.vma, 0, 64, 1)
	ctr.App = d
	d.addTask(ctr)
}

// Reattach implements Workload: after a restore the process tree was
// rebuilt by CRIU, so the workload re-finds its process and mapping and
// restarts its task from the checkpointed sequence number.
func (d *dirtyLoop) Reattach(ctr *container.Container, state any) {
	d.RestoreState(state)
	start := d.vma.Start
	d.proc = nil
	for _, p := range ctr.Procs {
		if p.Name == "dirtyloop" {
			d.proc = p
			break
		}
	}
	if d.proc == nil {
		panic("cluster: restored container lost the dirtyloop process")
	}
	d.vma = d.proc.Mem.FindVMA(start)
	if d.vma == nil {
		panic("cluster: restored container lost the dirtyloop mapping")
	}
	ctr.App = d
	d.addTask(ctr)
}

func (d *dirtyLoop) addTask(ctr *container.Container) {
	ctr.AddTask(d.proc.MainThread(), func() (simtime.Duration, simtime.Duration) {
		d.seq++
		idx := int((d.seq + uint64(d.seed)) % 60)
		_ = d.proc.Mem.Touch(d.vma, idx, 3, byte(d.seq))
		return 20 * simtime.Microsecond, 2 * simtime.Millisecond
	})
}
