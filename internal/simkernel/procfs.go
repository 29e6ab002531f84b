package simkernel

import "nilicon/internal/simtime"

// This file models the kernel interfaces CRIU uses to collect memory
// state, with their contrasting costs (§V of the paper):
//
//   - /proc/pid/smaps: formatted text, includes expensive per-page
//     statistics checkpointing does not need — slow (causes (2) and (3)).
//   - netlink task-diag: binary VMA dump — fast (the CRIU developers'
//     kernel patch, which NiLiCon applies).
//   - /proc/pid/clear_refs + /proc/pid/pagemap: soft-dirty tracking for
//     incremental checkpoints (§II-B).
//
// Both VMA interfaces return the same records, read straight from the
// address space. The smaps text and its page statistics are never
// generated or parsed: producing and parsing them is charged as
// SmapsPerVMA and SmapsPerPage (DESIGN.md §4).

// VMAInfo is the per-VMA record either interface returns.
type VMAInfo struct {
	Start, End uint64
	Prot       Prot
	Path       string
	FileOff    uint64
}

// vmaInfos returns the VMA records. A record depends on the VMA list
// alone, so the address space keeps the list it returned last time and
// hands it out again until a VMA is mapped or unmapped.
func (k *Kernel) vmaInfos(p *Process) []VMAInfo {
	as := p.Mem
	if as.infos != nil {
		return as.infos
	}
	vmas := as.VMAs()
	out := make([]VMAInfo, 0, len(vmas))
	for _, v := range vmas {
		out = append(out, VMAInfo{Start: v.Start, End: v.End, Prot: v.Prot, Path: v.Path, FileOff: v.FileOff})
	}
	as.infos = out[:len(out):len(out)]
	return out
}

// ReadSmaps reads /proc/pid/smaps: every VMA, with page statistics
// the reader does not need. Cost: per VMA plus per resident page. The
// returned list is shared as TaskDiagVMAs' is.
func (k *Kernel) ReadSmaps(p *Process) []VMAInfo {
	out := k.vmaInfos(p)
	cost := scaleDur(k.Costs.SmapsPerVMA, len(out))
	cost += scaleDur(k.Costs.SmapsPerPage, p.Mem.ResidentPages())
	k.ChargeSyscall(cost)
	return out
}

// TaskDiagVMAs reads the VMA list through the netlink task-diag
// interface: binary records, no page statistics. Cost: per-VMA only,
// charged on every call. The returned list is shared with later calls
// until the VMA list changes, so callers must not write it.
func (k *Kernel) TaskDiagVMAs(p *Process) []VMAInfo {
	out := k.vmaInfos(p)
	k.ChargeSyscall(scaleDur(k.Costs.NetlinkPerVMA, len(out)))
	return out
}

// ClearRefs writes "4" to /proc/pid/clear_refs, clearing the soft-dirty
// bits so tracking restarts for the next epoch.
func (k *Kernel) ClearRefs(p *Process) {
	k.ChargeSyscall(scaleDur(k.Costs.ClearRefsPerPage, p.Mem.ResidentPages()))
	p.Mem.ClearSoftDirtyBits()
}

// ReadPagemap scans /proc/pid/pagemap and appends to dst the page
// numbers whose soft-dirty bit is set. Cost is proportional to resident
// pages, matching the paper's 49K pages → 1441 µs / 111K pages → 2887 µs
// measurements.
func (k *Kernel) ReadPagemap(p *Process, dst []uint64) []uint64 {
	k.ChargeSyscall(scaleDur(k.Costs.PagemapPerPage, p.Mem.ResidentPages()))
	return p.Mem.AppendDirtyPageNumbers(dst)
}

// scaleDur multiplies a per-unit cost by a count.
func scaleDur(d simtime.Duration, n int) simtime.Duration {
	return d * simtime.Duration(n)
}
