package simkernel

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"unsafe"

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
	// softDirty is the frames' soft-dirty PTE bits (set on write,
	// cleared via /proc/pid/clear_refs), bit i%64 of word i/64 for
	// frame i, and nDirty counts the bits set: a pagemap scan reads the
	// set bits of the VMAs in address order, already sorted.
	softDirty []uint64
	nDirty    int
}

// Pages returns the number of pages the VMA spans.
func (v *VMA) Pages() int { return int((v.End - v.Start) / PageSize) }

func (v *VMA) String() string {
	return fmt.Sprintf("%x-%x %s %s", v.Start, v.End, v.Prot, v.Path)
}

// Page is one page frame. Data is nil while the page is not resident and
// has length PageSize once it is.
type Page struct {
	Data []byte
	// WriteProtected supports hypervisor-style dirty tracking (MC): a
	// write to a protected page costs a VM exit and clears the bit.
	WriteProtected bool
	// Shared marks Data as handed out (SharePage, InstallPage) or as a
	// stamp frame (Touch): other holders may read it for as long as
	// they keep it, so the address space never writes it again. The
	// next write copies the page into a fresh buffer first and clears
	// the bit.
	Shared bool
}

// pagePool recycles page-sized buffers. Copy-on-write copies and
// CopyPage draw from it; RecyclePage returns buffers whose last holder
// let go (DESIGN.md §8). It is a free list of array pointers, so putting
// a buffer back allocates nothing, guarded by a mutex because worlds run
// in parallel. It keeps at most pagePoolMax buffers (16 MiB); a buffer
// recycled past that is left to the collector, so a burst of recycling
// does not pin memory for the rest of the process. Shared and bounded,
// and holding buffers, not records, it is not a pool.Free.
var pagePool struct {
	mu   sync.Mutex
	free []*[PageSize]byte
}

// pagePoolMax bounds the page pool's free list.
const pagePoolMax = 4096

// newPage returns a page-sized buffer from the pool, or a fresh one when
// the pool is empty. Its content is whatever it last held.
func newPage() *[PageSize]byte {
	pagePool.mu.Lock()
	if n := len(pagePool.free); n > 0 {
		b := pagePool.free[n-1]
		pagePool.free[n-1] = nil
		pagePool.free = pagePool.free[:n-1]
		pagePool.mu.Unlock()
		return b
	}
	pagePool.mu.Unlock()
	return new([PageSize]byte)
}

// CopyPage returns a copy of src. A page-sized copy comes from the page
// pool; any other length is a fresh allocation.
func CopyPage(src []byte) []byte {
	if len(src) != PageSize {
		return append([]byte(nil), src...)
	}
	b := newPage()[:]
	copy(b, src)
	return b
}

// RecyclePage returns a dead page buffer to the pool. The caller must be
// its last holder: a buffer still reachable from a frame, a page store,
// an image or the delta encoder would be overwritten by the next copy.
// Buffers that are not page-sized (and nil) and stamp frames are
// ignored.
func RecyclePage(b []byte) {
	if len(b) != PageSize || IsStampPage(b) {
		return
	}
	pagePool.mu.Lock()
	if len(pagePool.free) < pagePoolMax {
		pagePool.free = append(pagePool.free, (*[PageSize]byte)(b))
	}
	pagePool.mu.Unlock()
}

// PageHolders counts the page stores that share a page buffer. A
// chain's fan-out hands every captured page to each of its replicas, so
// several stores hold one buffer, and only the last of them to
// supersede it may recycle it. A buffer with no entry has one holder,
// so a pair, which shares nothing, keeps an empty table. One chain's
// stores live in one world, so the table needs no lock.
//
// A count may run high, never low: Release is the only decrement, and a
// holder that lets go otherwise (a lost image, a store a resync resets
// or a fence drops) leaves its count in place. A buffer whose count
// never reaches zero is left to the collector instead of the pool.
// Entries are keyed by address, so they do not keep buffers alive.
type PageHolders struct {
	n map[uintptr]int32
}

// NewPageHolders returns an empty holder table.
func NewPageHolders() *PageHolders {
	return &PageHolders{n: make(map[uintptr]int32)}
}

// Hold records that n holders now share b, replacing any older count: b
// is being handed out afresh, and a store that held it before can let
// go of it only through a reset, never by superseding it, because
// superseding needs a write, which would have moved the frame off b
// before it was handed out again. Stamp frames and buffers that are not
// page-sized are never recycled and are not counted.
func (h *PageHolders) Hold(b []byte, n int) {
	if n < 2 || len(b) != PageSize || IsStampPage(b) {
		return
	}
	h.n[uintptr(unsafe.Pointer(unsafe.SliceData(b)))] = int32(n)
}

// Release records that one holder superseded b and reports whether it
// was the last, the only one that may recycle the buffer.
func (h *PageHolders) Release(b []byte) bool {
	if len(b) == 0 || len(h.n) == 0 {
		return true
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	n, ok := h.n[p]
	if !ok {
		return true
	}
	if n <= 1 {
		delete(h.n, p)
		return true
	}
	h.n[p] = n - 1
	return false
}

// stampArena holds the stamp frames: stampPages[s] is a read-only page
// of zeros with byte 0 set to s, the only contents a page can have when
// Touch is all that ever wrote it.
var (
	stampArena = make([]byte, 256*PageSize)
	stampPages = func() (pages [256][]byte) {
		for s := range pages {
			pages[s] = stampArena[s*PageSize : (s+1)*PageSize : (s+1)*PageSize]
			pages[s][0] = byte(s)
		}
		return pages
	}()
)

// StampPage returns the stamp frame for s. It must never be written;
// stamp frame 0 is the all-zero page.
func StampPage(s byte) []byte { return stampPages[s] }

// IsStampPage reports whether b is one of the stamp frames (by identity,
// not content). Stamp frames are never owned: nothing writes or
// recycles them, so any number of frames, images and stores may hold
// one. The test compares addresses against the arena's and never loads
// the page: a page-sized slice that starts inside the arena is a stamp
// frame, since each frame's capacity ends at the next frame.
func IsStampPage(b []byte) bool {
	off := uintptr(unsafe.Pointer(unsafe.SliceData(b))) - uintptr(unsafe.Pointer(unsafe.SliceData(stampArena)))
	return len(b) == PageSize && off < uintptr(len(stampArena))
}

// AddressSpace is a process's virtual memory: a sorted set of VMAs, each
// owning its page frames, with both soft-dirty (NiLiCon) and
// write-protect (MC) dirty tracking.
//
// Like a hardware page table, a page is found through its VMA, and each
// VMA keeps its pages' soft-dirty bits in a bitmap: a pagemap scan and a
// clear_refs cost the simulator a word per 64 pages of the VMAs with a
// dirty page, plus O(dirty), while ReadPagemap and ClearRefs still
// charge the modelled kernel its per-resident-page cost.
type AddressSpace struct {
	k        *Kernel
	vmas     []*VMA // sorted by Start, non-overlapping
	resident int    // resident frames across all VMAs
	// infos caches the VMA records smaps and task-diag return (nil until
	// built).
	// Only insertVMA and Munmap change the VMA list, and each drops it.
	infos []VMAInfo

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
func (as *AddressSpace) Mmap(size uint64, prot Prot, path, containerID string) *VMA {
	if size == 0 {
		panic("simkernel: Mmap of zero size")
	}
	pages := (size + PageSize - 1) / PageSize
	v := &VMA{Start: as.nextMap, End: as.nextMap + pages*PageSize, Prot: prot, Path: path}
	as.nextMap = v.End + PageSize // guard page gap
	as.insertVMA(v)
	if path != "" {
		as.k.Trace.Fire(ftraceEvent("mmap_region", containerID))
	}
	return v
}

// insertVMA gives v fresh, non-resident frames and adds it to the
// sorted VMA list.
func (as *AddressSpace) insertVMA(v *VMA) {
	v.frames = make([]Page, v.Pages())
	v.softDirty, v.nDirty = make([]uint64, (v.Pages()+63)/64), 0
	as.infos = nil
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
}

// Munmap removes a VMA and drops its resident pages.
func (as *AddressSpace) Munmap(v *VMA) {
	for i, x := range as.vmas {
		if x == v {
			as.infos = nil
			as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
			for j := range v.frames {
				if v.frames[j].Data != nil {
					as.resident--
				}
			}
			v.frames, v.softDirty, v.nDirty = nil, nil, 0
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
	v, i := as.locate(pn)
	if v == nil {
		return nil
	}
	return &v.frames[i]
}

// locate returns the VMA that maps page pn and the page's index in it
// (nil, 0 when no VMA maps it).
func (as *AddressSpace) locate(pn uint64) (*VMA, int) {
	v := as.FindVMA(pn * PageSize)
	if v == nil {
		return nil, 0
	}
	return v, int(pn - v.Start/PageSize)
}

// setSoftDirty sets the soft-dirty bit of v's frame i and reports
// whether it was clear.
func (v *VMA) setSoftDirty(i int) bool {
	w, bit := &v.softDirty[i/64], uint64(1)<<(i%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	v.nDirty++
	return true
}

// account does the fault and dirty-tracking work of an access to v's
// frame i and reports whether the page was resident. A page that was
// not is counted resident; the caller gives it a buffer.
func (as *AddressSpace) account(v *VMA, i int, forWrite bool) bool {
	pg := &v.frames[i]
	if pg.Data == nil {
		as.resident++
		as.trackOverhead += as.k.Costs.MinorFault
		// A freshly faulted page starts dirty under both trackers.
		v.setSoftDirty(i)
		return false
	}
	if forWrite {
		if v.setSoftDirty(i) && as.softTracking {
			as.trackOverhead += as.k.Costs.SoftDirtyFault
		}
		if as.wpTracking && pg.WriteProtected {
			pg.WriteProtected = false
			as.trackOverhead += as.k.Costs.VMExit
		}
	}
	return true
}

// access returns v's frame i, faulting it in if needed and doing the
// dirty-tracking work of the access. A write to a shared frame copies it
// first.
func (as *AddressSpace) access(v *VMA, i int, forWrite bool) *Page {
	pg := &v.frames[i]
	if !as.account(v, i, forWrite) {
		pg.Data = make([]byte, PageSize)
	} else if forWrite && pg.Shared {
		pg.Data, pg.Shared = CopyPage(pg.Data), false
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
		v, i := as.locate(pn)
		pg := as.access(v, i, true)
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
		v, i := as.locate(pn)
		pg := as.access(v, i, false)
		dst = append(dst, pg.Data[po:int(po)+c]...)
		off += c
	}
	return dst, nil
}

// Touch dirties count pages starting at the VMA's base without copying
// real payloads; workloads use it to model computation over large arrays
// cheaply while still exercising the fault/tracking machinery. Each page
// gets stamp written to byte 0 so content-based checks still see a
// change. A page that is not resident, or holds a stamp frame, then
// holds exactly a stamp frame's content, so Touch points it at
// StampPage(stamp) instead of writing: no copy, no allocation. Any
// other page is written as Write would. The fault and tracking costs
// are the same either way.
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
	for i := firstPage; i < firstPage+count; i++ {
		pg := &own.frames[i]
		if pg.Data == nil || IsStampPage(pg.Data) {
			as.account(own, i, true)
			pg.Data, pg.Shared = stampPages[stamp], true
			continue
		}
		as.access(own, i, true).Data[0] = stamp
	}
	return nil
}

// ResidentPages returns the number of resident page frames.
func (as *AddressSpace) ResidentPages() int { return as.resident }

// SetSoftDirtyTracking enables or disables soft-dirty accounting of
// writes (the tracking bits themselves live in each VMA's bitmap).
func (as *AddressSpace) SetSoftDirtyTracking(on bool) { as.softTracking = on }

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

// DirtyPageNumbers returns the sorted page numbers whose soft-dirty bit
// is set. This is the functional core of a pagemap scan; the procfs
// wrapper charges the scan cost.
func (as *AddressSpace) DirtyPageNumbers() []uint64 {
	return as.AppendDirtyPageNumbers(nil)
}

// AppendDirtyPageNumbers appends DirtyPageNumbers' result to dst and
// returns the extended slice. The VMAs are sorted and disjoint, so
// walking each one's bitmap in order yields the page numbers sorted.
func (as *AddressSpace) AppendDirtyPageNumbers(dst []uint64) []uint64 {
	n := 0
	for _, v := range as.vmas {
		n += v.nDirty
	}
	dst = slices.Grow(dst, n)
	for _, v := range as.vmas {
		if v.nDirty == 0 {
			continue
		}
		base := v.Start / PageSize
		for wi, w := range v.softDirty {
			for ; w != 0; w &= w - 1 {
				dst = append(dst, base+uint64(wi*64+bits.TrailingZeros64(w)))
			}
		}
	}
	return dst
}

// ClearSoftDirtyBits clears every page's soft-dirty bit (the functional
// part of writing /proc/pid/clear_refs). VMAs with no dirty page are
// skipped.
func (as *AddressSpace) ClearSoftDirtyBits() {
	for _, v := range as.vmas {
		if v.nDirty > 0 {
			clear(v.softDirty)
			v.nDirty = 0
		}
	}
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
	v, i := as.locate(pn)
	if v == nil {
		panic(fmt.Sprintf("simkernel: InstallPage of page %#x outside every VMA", pn))
	}
	pg := &v.frames[i]
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
	v.setSoftDirty(i)
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
