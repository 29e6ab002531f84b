// Package remus implements MC, KVM/QEMU's micro-checkpointing
// implementation of Remus, as the comparison baseline of the paper's
// evaluation (§VI, Figure 3, Table III). It replicates a simulated
// whole VM: dirty pages are tracked by write-protecting guest memory at
// each epoch (every first write costs a VM exit/entry, which is why
// MC's runtime overhead exceeds NiLiCon's, §VII-C), and the checkpoint
// is a pure memory copy — no in-kernel state collection is needed, so
// MC's stop times are shorter (Table III). Following the paper's setup,
// MC uses a local disk without replication.
//
// The guest is modeled by the same container construct the rest of the
// code uses; remus simply replicates it VM-style. Guest-kernel pages
// (network stack buffers, file cache, ...) dirtied by the workload's
// system activity are modeled by a per-epoch KernelDirtyPages count from
// the workload profile.
package remus

import (
	"nilicon/internal/container"
	"nilicon/internal/core"
	"nilicon/internal/metrics"
	"nilicon/internal/simtime"
)

// Cost model for the hypervisor-level checkpoint path, fitted to Table
// III's MC stop times (≈2.2 ms fixed + ≈1.15 µs per dirty page).
const (
	// PauseFixed is the fixed VM pause cost per checkpoint.
	PauseFixed = 2200 * simtime.Microsecond
	// PerDirtyPage is the per-page copy cost into the staging buffer.
	PerDirtyPage = 1150 * simtime.Nanosecond
	// epochInterval is the checkpoint interval (30 ms, matching
	// NiLiCon's epoch in the paper's comparison).
	epochInterval = 30 * simtime.Millisecond
)

// Config parameterizes the MC replicator.
type Config struct {
	// KernelDirtyPages is the number of guest-kernel pages dirtied per
	// epoch in addition to the workload's user-space pages.
	KernelDirtyPages int
	// RuntimeTaxPerEpoch models virtualization runtime overhead beyond
	// per-page VM exits (EPT pressure, virtio syncs); the guest loses
	// this much execution time mid-epoch.
	RuntimeTaxPerEpoch simtime.Duration
}

// MC replicates a simulated VM with micro-checkpointing.
type MC struct {
	Cfg config
	Ctr *container.Container
	cl  *core.Cluster

	epoch   uint64
	stopped bool
	first   bool

	// StopTimes, DirtyPages and StateBytes aggregate per-epoch stats
	// (seconds / pages / bytes).
	StopTimes  metrics.Stream
	DirtyPages metrics.Stream
	StateBytes metrics.Stream

	// ReplStart marks when replication began.
	ReplStart simtime.Time
}

type config = Config

// New creates an MC replicator for the given guest.
func New(cl *core.Cluster, ctr *container.Container, cfg Config) *MC {
	return &MC{Cfg: cfg, Ctr: ctr, cl: cl, first: true}
}

// Start begins micro-checkpointing: guest memory is write-protected so
// dirty pages are tracked via VM exits, and output is buffered for the
// output-commit rule exactly as with NiLiCon.
func (m *MC) Start() {
	m.ReplStart = m.cl.Clock.Now()
	m.Ctr.Qdisc.SetReplicating(true)
	for _, p := range m.Ctr.Procs {
		p.Mem.SetSoftDirtyTracking(false) // no soft-dirty charges...
		p.Mem.WriteProtectAll()           // ...VM exits instead
	}
	m.cl.Clock.Schedule(epochInterval, m.runEpoch)
}

// Stop ends replication.
func (m *MC) Stop() {
	m.stopped = true
	m.Ctr.Qdisc.SetReplicating(false)
}

// Epochs returns the number of checkpoints taken.
func (m *MC) Epochs() uint64 { return m.epoch }

func (m *MC) runEpoch() {
	if m.stopped {
		return
	}
	cl := m.cl
	m.Ctr.Freeze()
	// A paused VM processes no incoming packets, so unlike NiLiCon no
	// input blocking is needed (§III). Collect dirty pages.
	dirty := 0
	for _, p := range m.Ctr.Procs {
		if m.first {
			dirty += p.Mem.ResidentPages()
		} else {
			dirty += len(p.Mem.DirtyPageNumbers())
		}
		p.Mem.ClearSoftDirtyBits()
		p.Mem.WriteProtectAll()
	}
	if !m.first {
		dirty += m.Cfg.KernelDirtyPages
	} else {
		// Initial sync: the whole guest RAM including kernel pages.
		dirty += m.Cfg.KernelDirtyPages * 50
	}
	stop := PauseFixed + PerDirtyPage*simtime.Duration(dirty)
	stateBytes := int64(dirty) * 4096

	epoch := m.epoch
	m.epoch++
	m.Ctr.Qdisc.Rotate(epoch)

	if !m.first {
		m.StopTimes.Add(simtime.Duration(stop).Seconds())
		m.DirtyPages.Add(float64(dirty))
		m.StateBytes.Add(float64(stateBytes))
	}
	m.first = false

	// MC copies to a staging buffer during the pause, resumes, then
	// transfers; the backup acks and the buffered output is released.
	cl.Clock.Schedule(stop, func() {
		if m.stopped {
			return
		}
		m.Ctr.Thaw()
		cl.ReplLink.Transfer(stateBytes, func() {
			cl.AckLink.Transfer(16, func() {
				if !m.stopped {
					m.Ctr.Qdisc.Release(epoch)
				}
			})
		})
		cl.Clock.Schedule(epochInterval, m.runEpoch)
		m.applyRuntimeTax()
	})
}

// applyRuntimeTax steals virtualization runtime overhead from the middle
// of the execution phase.
func (m *MC) applyRuntimeTax() {
	tax := m.Cfg.RuntimeTaxPerEpoch
	if tax <= 0 {
		return
	}
	m.cl.Clock.Schedule(epochInterval/2, func() {
		if m.stopped || m.Ctr.Frozen() || m.Ctr.Stopped() {
			return
		}
		m.Ctr.Freeze()
		m.Ctr.RuntimeOverhead += tax
		m.cl.Clock.Schedule(tax, func() {
			if !m.stopped {
				m.Ctr.Thaw()
			}
		})
	})
}
