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
// Both VMA interfaces read their records straight from the address
// space; smaps also fills in the page statistics. The smaps text is
// never rendered or parsed: generating and parsing it is charged as
// SmapsPerVMA and SmapsPerPage (DESIGN.md §4).

// VMAInfo is the per-VMA record either interface returns.
type VMAInfo struct {
	Start, End uint64
	Prot       Prot
	Path       string
	FileOff    uint64
	// ResidentPages and DirtyPages are the page statistics smaps
	// generates whether or not the reader needs them.
	ResidentPages int
	DirtyPages    int
}

// vmaInfos returns the VMA records, with the page statistics only when
// withStats is set. Without them a record depends on the VMA list
// alone, so the address space keeps the list it returned last time and
// hands it out again until a VMA is mapped or unmapped.
func (k *Kernel) vmaInfos(p *Process, withStats bool) []VMAInfo {
	as := p.Mem
	if !withStats && as.infos != nil {
		return as.infos
	}
	vmas := as.VMAs()
	out := make([]VMAInfo, 0, len(vmas))
	for _, v := range vmas {
		info := VMAInfo{Start: v.Start, End: v.End, Prot: v.Prot, Path: v.Path, FileOff: v.FileOff}
		if withStats {
			for i := range v.frames {
				if pg := &v.frames[i]; pg.Data != nil {
					info.ResidentPages++
					if pg.SoftDirty {
						info.DirtyPages++
					}
				}
			}
		}
		out = append(out, info)
	}
	if !withStats {
		as.infos = out[:len(out):len(out)]
	}
	return out
}

// ReadSmaps reads /proc/pid/smaps: every VMA with full page
// statistics. Cost: per VMA plus per resident page.
func (k *Kernel) ReadSmaps(p *Process) []VMAInfo {
	out := k.vmaInfos(p, true)
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
	out := k.vmaInfos(p, false)
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
