package simkernel

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"nilicon/internal/simtime"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// Prot is a VMA protection bitmask.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

func (p Prot) String() string {
	s := []byte("---")
	if p&ProtRead != 0 {
		s[0] = 'r'
	}
	if p&ProtWrite != 0 {
		s[1] = 'w'
	}
	if p&ProtExec != 0 {
		s[2] = 'x'
	}
	return string(s)
}

// VMA is one virtual memory area.
type VMA struct {
	Start uint64 // inclusive, page-aligned
	End   uint64 // exclusive, page-aligned
	Prot  Prot
	// Path is the backing file path; empty for anonymous mappings.
	// Memory-mapped files are what make stat()-per-file expensive in
	// stock CRIU (§V cause (1)).
	Path    string
	FileOff uint64

	// frames holds the VMA's page frames, indexed by page offset from
	// Start. A frame with nil Data is not resident.
	frames []Page
}

// Pages returns the number of pages the VMA spans.
func (v *VMA) Pages() int { return int((v.End - v.Start) / PageSize) }

// Anonymous reports whether the VMA has no backing file.
func (v *VMA) Anonymous() bool { return v.Path == "" }

func (v *VMA) String() string {
	return fmt.Sprintf("%x-%x %s %s", v.Start, v.End, v.Prot, v.Path)
}

// Page is one page frame. Data is nil while the page is not resident and
// has length PageSize once it is.
type Page struct {
	Data []byte
	// SoftDirty is the kernel's soft-dirty PTE bit (set on write, cleared
	// via /proc/pid/clear_refs).
	SoftDirty bool
	// WriteProtected supports hypervisor-style dirty tracking (MC): a
	// write to a protected page costs a VM exit and clears the bit.
	WriteProtected bool
	// Shared marks Data as handed out (SharePage, InstallPage): other
	// holders may read it for as long as they keep it, so the address
	// space never writes it again. The next write copies the page into
	// a fresh buffer first and clears the bit.
	Shared bool
}

// pagePool recycles page-sized buffers. Copy-on-write copies and
// CopyPage draw from it; RecyclePage returns buffers whose last holder
// let go (DESIGN.md §8).
var pagePool = sync.Pool{
	New: func() any {
		b := make([]byte, PageSize)
		return &b
	},
}

// CopyPage returns a copy of src. A page-sized copy comes from the page
// pool; any other length is a fresh allocation.
func CopyPage(src []byte) []byte {
	if len(src) != PageSize {
		return append([]byte(nil), src...)
	}
	b := *pagePool.Get().(*[]byte)
	copy(b, src)
	return b
}

// RecyclePage returns a dead page buffer to the pool. The caller must be
// its last holder: a buffer still reachable from a frame, a page store,
// an image or the delta encoder would be overwritten by the next copy.
// Buffers that are not page-sized (and nil) are ignored.
func RecyclePage(b []byte) {
	if len(b) != PageSize {
		return
	}
	pagePool.Put(&b)
}

// AddressSpace is a process's virtual memory: a sorted set of VMAs, each
// owning its page frames, with both soft-dirty (NiLiCon) and
// write-protect (MC) dirty tracking.
//
// Like a hardware page table, a page is found through its VMA, and the
// soft-dirty pages are kept on a list: a pagemap scan and a clear_refs
// cost the simulator O(dirty) work, while ReadPagemap and ClearRefs
// still charge the modelled kernel its per-resident-page cost.
type AddressSpace struct {
	k        *Kernel
	vmas     []*VMA // sorted by Start, non-overlapping
	resident int    // resident frames across all VMAs
	// dirty lists, unsorted, the page numbers (address / PageSize) whose
	// soft-dirty bit is set. A page is appended exactly when its bit goes
	// from clear to set, so the list holds no duplicates.
	dirty []uint64

	nextMap uint64 // bump allocator for Mmap

	softTracking bool
	wpTracking   bool

	// trackOverhead accumulates runtime dirty-tracking costs (soft-dirty
	// faults or VM exits) since the last harvest. The container scheduler
	// folds it into thread execution time; this is the paper's "runtime
	// overhead" component in Figure 3.
	trackOverhead simtime.Duration
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace(k *Kernel) *AddressSpace {
	return &AddressSpace{
		k:       k,
		nextMap: 0x10000, // leave the zero pages unmapped
	}
}

// Mmap allocates a VMA of the given size (rounded up to pages) at a fresh
// address. path names the backing file ("" for anonymous). Mapping a file
// fires the ftrace hook for mmap, which the state-change tracker uses to
// invalidate the mapped-files cache (§V-B).
func (as *AddressSpace) Mmap(size uint64, prot Prot, path string, pid int, containerID string) *VMA {
	if size == 0 {
		panic("simkernel: Mmap of zero size")
	}
	pages := (size + PageSize - 1) / PageSize
	v := &VMA{Start: as.nextMap, End: as.nextMap + pages*PageSize, Prot: prot, Path: path}
	as.nextMap = v.End + PageSize // guard page gap
	as.insertVMA(v)
	if path != "" {
		as.k.Trace.Fire(ftraceEvent("mmap_region", pid, containerID, path))
	}
	return v
}

// insertVMA gives v fresh, non-resident frames and adds it to the
// sorted VMA list.
func (as *AddressSpace) insertVMA(v *VMA) {
	v.frames = make([]Page, v.Pages())
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
}

// Munmap removes a VMA and drops its resident pages.
func (as *AddressSpace) Munmap(v *VMA) {
	for i, x := range as.vmas {
		if x == v {
			as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
			for j := range v.frames {
				if v.frames[j].Data != nil {
					as.resident--
				}
			}
			v.frames = nil
			lo, hi := v.Start/PageSize, v.End/PageSize
			as.dirty = slices.DeleteFunc(as.dirty, func(pn uint64) bool { return lo <= pn && pn < hi })
			return
		}
	}
}

// VMAs returns the VMA list (shared slice; callers must not mutate).
func (as *AddressSpace) VMAs() []*VMA { return as.vmas }

// FindVMA returns the VMA containing addr, or nil.
func (as *AddressSpace) FindVMA(addr uint64) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > addr })
	if i < len(as.vmas) && as.vmas[i].Start <= addr {
		return as.vmas[i]
	}
	return nil
}

// MappedFiles returns the distinct backing-file paths, in first-seen order.
func (as *AddressSpace) MappedFiles() []string {
	seen := make(map[string]bool)
	var out []string
	for _, v := range as.vmas {
		if v.Path != "" && !seen[v.Path] {
			seen[v.Path] = true
			out = append(out, v.Path)
		}
	}
	return out
}

// checkRange verifies [addr, addr+n) is covered by mapped VMAs.
func (as *AddressSpace) checkRange(addr uint64, n int) error {
	end := addr + uint64(n)
	for a := addr; a < end; {
		v := as.FindVMA(a)
		if v == nil {
			return fmt.Errorf("simkernel: segfault at %#x (unmapped)", a)
		}
		if v.End >= end {
			return nil
		}
		a = v.End
	}
	return nil
}

// frame returns page pn's frame slot, or nil when no VMA maps it.
func (as *AddressSpace) frame(pn uint64) *Page {
	v := as.FindVMA(pn * PageSize)
	if v == nil {
		return nil
	}
	return &v.frames[pn-v.Start/PageSize]
}

// setSoftDirty sets pg's soft-dirty bit, listing pn if the bit was clear.
// It reports whether the bit was clear.
func (as *AddressSpace) setSoftDirty(pg *Page, pn uint64) bool {
	if pg.SoftDirty {
		return false
	}
	pg.SoftDirty = true
	as.dirty = append(as.dirty, pn)
	return true
}

// access returns frame slot pg, which holds page pn, faulting it in if
// needed and doing the dirty-tracking work of the access.
func (as *AddressSpace) access(pg *Page, pn uint64, forWrite bool) *Page {
	if pg.Data == nil {
		pg.Data = make([]byte, PageSize)
		as.resident++
		as.trackOverhead += as.k.Costs.MinorFault
		// A freshly faulted page starts dirty under both trackers.
		as.setSoftDirty(pg, pn)
		return pg
	}
	if forWrite {
		if pg.Shared {
			pg.Data, pg.Shared = CopyPage(pg.Data), false
		}
		if as.setSoftDirty(pg, pn) && as.softTracking {
			as.trackOverhead += as.k.Costs.SoftDirtyFault
		}
		if as.wpTracking && pg.WriteProtected {
			pg.WriteProtected = false
			as.trackOverhead += as.k.Costs.VMExit
		}
	}
	return pg
}

// Write copies data into the address space at addr, performing dirty
// tracking. It returns an error on access to unmapped memory or to a
// non-writable VMA.
func (as *AddressSpace) Write(addr uint64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if err := as.checkRange(addr, len(data)); err != nil {
		return err
	}
	if v := as.FindVMA(addr); v.Prot&ProtWrite == 0 {
		return fmt.Errorf("simkernel: write to read-only mapping at %#x", addr)
	}
	for off := 0; off < len(data); {
		pn := (addr + uint64(off)) / PageSize
		po := (addr + uint64(off)) % PageSize
		n := PageSize - int(po)
		if n > len(data)-off {
			n = len(data) - off
		}
		pg := as.access(as.frame(pn), pn, true)
		copy(pg.Data[po:], data[off:off+n])
		off += n
	}
	return nil
}

// Read copies n bytes starting at addr.
func (as *AddressSpace) Read(addr uint64, n int) ([]byte, error) {
	return as.AppendRead(make([]byte, 0, n), addr, n)
}

// AppendRead appends the n bytes starting at addr to dst and returns the
// extended slice; on error dst is returned unchanged.
func (as *AddressSpace) AppendRead(dst []byte, addr uint64, n int) ([]byte, error) {
	if err := as.checkRange(addr, n); err != nil {
		return dst, err
	}
	for off := 0; off < n; {
		pn := (addr + uint64(off)) / PageSize
		po := (addr + uint64(off)) % PageSize
		c := PageSize - int(po)
		if c > n-off {
			c = n - off
		}
		pg := as.access(as.frame(pn), pn, false)
		dst = append(dst, pg.Data[po:int(po)+c]...)
		off += c
	}
	return dst, nil
}

// Touch dirties count pages starting at the VMA's base without copying
// real payloads; workloads use it to model computation over large arrays
// cheaply while still exercising the fault/tracking machinery. Each page
// gets one byte written so content-based checks still see a change.
//
// v may come from another address space (a worker holding a VMA from
// before a restore), but it must span exactly one of the receiver's
// VMAs; anything else is an error, never a write to whatever the
// receiver maps at v.Start.
func (as *AddressSpace) Touch(v *VMA, firstPage, count int, stamp byte) error {
	own := as.FindVMA(v.Start)
	if own == nil || own.Start != v.Start || own.End != v.End {
		return fmt.Errorf("simkernel: Touch with stale VMA %v", v)
	}
	if firstPage < 0 || firstPage+count > own.Pages() {
		return fmt.Errorf("simkernel: Touch out of VMA range (%d+%d of %d pages)", firstPage, count, own.Pages())
	}
	base := own.Start/PageSize + uint64(firstPage)
	frames := own.frames[firstPage : firstPage+count]
	for i := range frames {
		as.access(&frames[i], base+uint64(i), true).Data[0] = stamp
	}
	return nil
}

// ResidentPages returns the number of resident page frames.
func (as *AddressSpace) ResidentPages() int { return as.resident }

// SetSoftDirtyTracking enables or disables soft-dirty accounting of
// writes (the tracking bit itself lives on each page).
func (as *AddressSpace) SetSoftDirtyTracking(on bool) { as.softTracking = on }

// SoftDirtyTracking reports whether soft-dirty fault accounting is on.
func (as *AddressSpace) SoftDirtyTracking() bool { return as.softTracking }

// WriteProtectAll marks every resident page write-protected and enables
// VM-exit accounting; this models MC re-protecting the guest at the start
// of each epoch.
func (as *AddressSpace) WriteProtectAll() {
	as.wpTracking = true
	for _, v := range as.vmas {
		for i := range v.frames {
			if v.frames[i].Data != nil {
				v.frames[i].WriteProtected = true
			}
		}
	}
}

// SetWriteProtectTracking toggles hypervisor-style tracking without
// touching page bits.
func (as *AddressSpace) SetWriteProtectTracking(on bool) { as.wpTracking = on }

// DirtyPageNumbers returns the sorted page numbers whose soft-dirty bit
// is set. This is the functional core of a pagemap scan; the procfs
// wrapper charges the scan cost.
func (as *AddressSpace) DirtyPageNumbers() []uint64 {
	slices.Sort(as.dirty)
	return append([]uint64(nil), as.dirty...)
}

// ClearSoftDirtyBits clears every page's soft-dirty bit (the functional
// part of writing /proc/pid/clear_refs). Only the listed dirty pages are
// visited.
func (as *AddressSpace) ClearSoftDirtyBits() {
	for _, pn := range as.dirty {
		as.frame(pn).SoftDirty = false
	}
	as.dirty = as.dirty[:0]
}

// PageData returns the frame contents for page number pn (nil if the
// page is not resident). The returned slice aliases the live page: it
// must not be written, and a later write to the page may or may not
// show through it. To keep the bytes, use SharePage.
func (as *AddressSpace) PageData(pn uint64) []byte {
	if pg := as.frame(pn); pg != nil {
		return pg.Data
	}
	return nil
}

// SharePage lends page pn's buffer (nil if the page is not resident).
// The frame is marked shared, so the buffer keeps its current content
// for as long as the caller holds it: the address space's next write to
// the page goes to a fresh copy. The caller must not write the buffer.
func (as *AddressSpace) SharePage(pn uint64) []byte {
	pg := as.frame(pn)
	if pg == nil || pg.Data == nil {
		return nil
	}
	pg.Shared = true
	return pg.Data
}

// InstallPage places content at page number pn during restore, without
// dirty-tracking charges. A page-sized data becomes the frame itself,
// installed shared: the caller may keep reading it, and must not write
// it. Other data is copied and zero-padded. Restore installs the VMAs
// first, so a page outside every VMA is a bug and panics.
func (as *AddressSpace) InstallPage(pn uint64, data []byte) {
	pg := as.frame(pn)
	if pg == nil {
		panic(fmt.Sprintf("simkernel: InstallPage of page %#x outside every VMA", pn))
	}
	if pg.Data == nil {
		as.resident++
	}
	if len(data) == PageSize {
		pg.Data, pg.Shared = data, true
	} else {
		pg.Data, pg.Shared = make([]byte, PageSize), false
		copy(pg.Data, data)
	}
	pg.WriteProtected = false
	as.setSoftDirty(pg, pn)
}

// InstallVMA places a VMA during restore (no hook fire, no allocator
// bump beyond the VMA's own range). The new VMA starts with no resident
// pages.
func (as *AddressSpace) InstallVMA(v VMA) *VMA {
	nv := v
	as.insertVMA(&nv)
	if nv.End+PageSize > as.nextMap {
		as.nextMap = nv.End + PageSize
	}
	return &nv
}

// ConsumeTrackingOverhead returns and clears the accumulated runtime
// dirty-tracking cost.
func (as *AddressSpace) ConsumeTrackingOverhead() simtime.Duration {
	d := as.trackOverhead
	as.trackOverhead = 0
	return d
}
