// Package simfs is the simulated file system with the kernel changes
// NiLiCon makes for file-system cache handling (§III): page-cache pages
// and inode-cache entries carry a "Dirty but Not Checkpointed" (DNC)
// flag; a new system call, Fgetfc, returns all DNC entries and clears
// the flag, giving incremental checkpoints of the fs cache without
// flushing to stable storage at every epoch. Writeback of dirty pages
// goes through the block layer (DRBD when replicated).
package simfs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"nilicon/internal/simkernel"
	"nilicon/internal/simtime"
)

// PageSize is the page-cache page size.
const PageSize = 4096

// BlockStore is the block layer under the file system (a raw Disk or a
// DRBD primary end). ReadBlock returns a page-sized copy the caller
// owns.
type BlockStore interface {
	WriteBlock(bn uint64, data []byte) error
	ReadBlock(bn uint64) []byte
}

// Inode is one file's metadata.
type Inode struct {
	Ino   int
	Path  string
	Size  int64
	Mode  int
	UID   int
	GID   int
	MTime simtime.Time

	// Sync marks O_SYNC files: every write is immediately written back
	// (SSDB's full-persistence configuration).
	Sync bool

	// attrDNC marks the inode-cache entry dirty-but-not-checkpointed.
	attrDNC bool
}

type pageKey struct {
	ino int
	idx int64
}

type cachePage struct {
	data []byte
	// dirty: needs writeback to the block layer.
	dirty bool
	// dnc: modified since the last checkpoint (§III).
	dnc bool
	// lent: Fgetfc handed data out, so the cache never writes it again;
	// the next write copies the page into a fresh buffer first (own).
	lent bool
}

// own makes the page's buffer writable: a lent buffer stays with its
// holders and the page continues on a copy from simkernel's page pool.
func (pg *cachePage) own() {
	if pg.lent {
		pg.data = simkernel.CopyPage(pg.data)
		pg.lent = false
	}
}

// FS is one mounted file system instance.
type FS struct {
	clock *simtime.Clock
	// Kernel receives virtual-time charges for fgetfc/flush operations;
	// may be nil (no accounting).
	Kernel *simkernel.Kernel

	store BlockStore

	byPath map[string]*Inode
	byIno  map[int]*Inode
	nextIn int

	cache map[pageKey]*cachePage
	// dncKeys lists, unsorted, the cache pages whose DNC flag is set: a
	// key is appended exactly when its page's flag goes clear→set, so
	// Fgetfc costs the simulator O(DNC pages), not O(cache). Entries go
	// stale when ApplyCache clears a flag or truncate drops the page, and
	// a page flagged again after that is listed twice; Fgetfc skips both.
	dncKeys []pageKey

	// WritebackDelay is how long a page stays dirty before the flusher
	// writes it to the block layer (0 disables automatic writeback).
	WritebackDelay simtime.Duration
	wbScheduled    map[pageKey]bool

	writebacks int64
}

// New creates a file system over the given block store.
func New(clock *simtime.Clock, store BlockStore) *FS {
	return &FS{
		clock:          clock,
		store:          store,
		byPath:         make(map[string]*Inode),
		byIno:          make(map[int]*Inode),
		nextIn:         1,
		cache:          make(map[pageKey]*cachePage),
		WritebackDelay: 200 * simtime.Millisecond,
		wbScheduled:    make(map[pageKey]bool),
	}
}

// SetStore swaps the block layer (restore re-points to the backup DRBD).
func (fs *FS) SetStore(s BlockStore) { fs.store = s }

// Create makes a new empty file; creating an existing path truncates it.
func (fs *FS) Create(path string) *Inode {
	if ino, ok := fs.byPath[path]; ok {
		fs.truncate(ino)
		return ino
	}
	ino := &Inode{Ino: fs.nextIn, Path: path, Mode: 0644, MTime: fs.clock.Now(), attrDNC: true}
	fs.nextIn++
	fs.byPath[path] = ino
	fs.byIno[ino.Ino] = ino
	return ino
}

func (fs *FS) truncate(ino *Inode) {
	for k := range fs.cache {
		if k.ino == ino.Ino {
			delete(fs.cache, k)
		}
	}
	ino.Size = 0
	ino.markAttr(fs)
}

// Open returns the inode at path, or nil.
func (fs *FS) Open(path string) *Inode { return fs.byPath[path] }

// Inodes returns all inodes sorted by inode number.
func (fs *FS) Inodes() []*Inode {
	out := make([]*Inode, 0, len(fs.byIno))
	for i := 1; i < fs.nextIn; i++ {
		if ino, ok := fs.byIno[i]; ok {
			out = append(out, ino)
		}
	}
	return out
}

func (ino *Inode) markAttr(fs *FS) {
	ino.attrDNC = true
	ino.MTime = fs.clock.Now()
}

// blockFor maps (inode, page index) to a device block number.
func blockFor(ino int, idx int64) uint64 { return uint64(ino)<<24 | uint64(idx) }

func (fs *FS) page(ino *Inode, idx int64, load bool) *cachePage {
	k := pageKey{ino.Ino, idx}
	pg := fs.cache[k]
	if pg == nil {
		// A loaded page takes the block layer's read-out as its buffer.
		pg = &cachePage{}
		if load && fs.store != nil {
			pg.data = fs.store.ReadBlock(blockFor(ino.Ino, idx))
		} else {
			pg.data = make([]byte, PageSize)
		}
		fs.cache[k] = pg
	}
	return pg
}

// WriteAt writes data at off, dirtying page-cache pages (dirty + DNC)
// and updating size (inode DNC). O_SYNC files write back immediately;
// otherwise the flusher picks the pages up after WritebackDelay.
func (fs *FS) WriteAt(ino *Inode, off int64, data []byte) error {
	if ino == nil {
		return fmt.Errorf("simfs: write to nil inode")
	}
	if off < 0 {
		return fmt.Errorf("simfs: negative offset %d", off)
	}
	for n := 0; n < len(data); {
		idx := (off + int64(n)) / PageSize
		po := (off + int64(n)) % PageSize
		c := PageSize - int(po)
		if c > len(data)-n {
			c = len(data) - n
		}
		pg := fs.page(ino, idx, true)
		pg.own()
		copy(pg.data[po:], data[n:n+c])
		pg.dirty = true
		if !pg.dnc {
			pg.dnc = true
			fs.dncKeys = append(fs.dncKeys, pageKey{ino.Ino, idx})
		}
		if ino.Sync {
			fs.writebackPage(ino, idx, pg)
		} else {
			fs.scheduleWriteback(ino, idx)
		}
		n += c
	}
	if end := off + int64(len(data)); end > ino.Size {
		ino.Size = end
		ino.markAttr(fs)
	}
	return nil
}

// ReadAt reads n bytes at off (zero-filled past EOF within the request).
func (fs *FS) ReadAt(ino *Inode, off int64, n int) ([]byte, error) {
	if ino == nil {
		return nil, fmt.Errorf("simfs: read from nil inode")
	}
	if off < 0 {
		return nil, fmt.Errorf("simfs: negative offset %d", off)
	}
	out := make([]byte, n)
	for got := 0; got < n; {
		idx := (off + int64(got)) / PageSize
		po := (off + int64(got)) % PageSize
		c := PageSize - int(po)
		if c > n-got {
			c = n - got
		}
		pg := fs.page(ino, idx, true)
		copy(out[got:got+c], pg.data[po:])
		got += c
	}
	return out, nil
}

func (fs *FS) scheduleWriteback(ino *Inode, idx int64) {
	if fs.WritebackDelay <= 0 {
		return
	}
	k := pageKey{ino.Ino, idx}
	if fs.wbScheduled[k] {
		return
	}
	fs.wbScheduled[k] = true
	fs.clock.Schedule(fs.WritebackDelay, func() {
		delete(fs.wbScheduled, k)
		if pg := fs.cache[k]; pg != nil && pg.dirty {
			fs.writebackPage(ino, idx, pg)
		}
	})
}

func (fs *FS) writebackPage(ino *Inode, idx int64, pg *cachePage) {
	if fs.store == nil {
		return
	}
	if err := fs.store.WriteBlock(blockFor(ino.Ino, idx), pg.data); err == nil {
		pg.dirty = false
		fs.writebacks++
	}
}

// Sync forces writeback of all the file's dirty pages now (fsync).
// Pages go out in ascending index order: iterating the cache map
// directly would make the block-layer write sequence (and the order its
// costs are charged in) vary run to run, breaking byte-identical
// traces.
func (fs *FS) Sync(ino *Inode) {
	idxs := make([]int64, 0)
	for k, pg := range fs.cache {
		if k.ino == ino.Ino && pg.dirty {
			idxs = append(idxs, k.idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		fs.writebackPage(ino, idx, fs.cache[pageKey{ino: ino.Ino, idx: idx}])
	}
}

// Writebacks returns the number of pages written to the block layer.
func (fs *FS) Writebacks() int64 { return fs.writebacks }

// DirtyPages returns how many cache pages await writeback.
func (fs *FS) DirtyPages() int {
	n := 0
	for _, pg := range fs.cache {
		if pg.dirty {
			n++
		}
	}
	return n
}

// PageEntry is one page-cache entry in an fs-cache checkpoint.
type PageEntry struct {
	Ino  int
	Idx  int64
	Data []byte
	// Dirty records whether the page still needed writeback at
	// checkpoint time; restore must preserve that so the data
	// eventually reaches the backup disk.
	Dirty bool
}

// InodeEntry is one inode-cache entry in an fs-cache checkpoint.
type InodeEntry struct {
	Ino   int
	Path  string
	Size  int64
	Mode  int
	UID   int
	GID   int
	Sync  bool
	MTime simtime.Time
}

// CacheSnapshot is what Fgetfc returns.
type CacheSnapshot struct {
	Pages  []PageEntry
	Inodes []InodeEntry
}

// Size returns the snapshot transfer size in bytes.
func (cs CacheSnapshot) Size() int64 {
	n := int64(0)
	for _, p := range cs.Pages {
		n += int64(len(p.Data)) + 24
	}
	n += int64(len(cs.Inodes)) * 96
	return n
}

// Fgetfc is the new system call (§III): it returns every DNC page-cache
// and inode-cache entry and clears the DNC state, charging per entry.
// Page entries lend the cache's own buffers, which the cache never
// writes again (copy-on-write): the snapshot keeps the bytes of its
// capture for as long as anyone holds it.
func (fs *FS) Fgetfc() CacheSnapshot {
	var cs CacheSnapshot
	slices.SortFunc(fs.dncKeys, comparePageKeys)
	for _, k := range fs.dncKeys {
		// A stale entry: the page was dropped, its flag was cleared by
		// ApplyCache, or it is a duplicate already taken below.
		pg := fs.cache[k]
		if pg == nil || !pg.dnc {
			continue
		}
		cs.Pages = append(cs.Pages, PageEntry{Ino: k.ino, Idx: k.idx, Data: pg.data, Dirty: pg.dirty})
		pg.lent = true
		pg.dnc = false
		fs.charge(fs.costs().FgetfcPerEntry)
	}
	fs.dncKeys = fs.dncKeys[:0]
	for _, ino := range fs.Inodes() {
		if ino.attrDNC {
			cs.Inodes = append(cs.Inodes, InodeEntry{
				Ino: ino.Ino, Path: ino.Path, Size: ino.Size, Mode: ino.Mode,
				UID: ino.UID, GID: ino.GID, Sync: ino.Sync, MTime: ino.MTime,
			})
			ino.attrDNC = false
			fs.charge(fs.costs().FgetfcPerEntry)
		}
	}
	return cs
}

// FgetfcFull returns every cached page and every inode — not just the
// DNC entries — and clears the DNC state, so the snapshot is a complete
// baseline and the next Fgetfc is incremental relative to it. The
// replication resync path uses this: after epochs are lost on the link,
// their DNC deltas are gone and only a full dump restores a consistent
// fs-cache view at the backup. Pages are lent as in Fgetfc, so a page
// not written since an earlier snapshot lends that snapshot's buffer
// again.
func (fs *FS) FgetfcFull() CacheSnapshot {
	var cs CacheSnapshot
	keys := make([]pageKey, 0, len(fs.cache))
	for k := range fs.cache {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, comparePageKeys)
	for _, k := range keys {
		pg := fs.cache[k]
		cs.Pages = append(cs.Pages, PageEntry{Ino: k.ino, Idx: k.idx, Data: pg.data, Dirty: pg.dirty})
		pg.lent = true
		pg.dnc = false
		fs.charge(fs.costs().FgetfcPerEntry)
	}
	fs.dncKeys = fs.dncKeys[:0]
	for _, ino := range fs.Inodes() {
		cs.Inodes = append(cs.Inodes, InodeEntry{
			Ino: ino.Ino, Path: ino.Path, Size: ino.Size, Mode: ino.Mode,
			UID: ino.UID, GID: ino.GID, Sync: ino.Sync, MTime: ino.MTime,
		})
		ino.attrDNC = false
		fs.charge(fs.costs().FgetfcPerEntry)
	}
	return cs
}

// ApplyCache applies checkpointed fs-cache entries during restore, using
// the existing system calls (pwrite for pages, chown/chmod for inodes),
// charging per entry. Page contents are copied: the cache never holds a
// snapshot's buffer.
func (fs *FS) ApplyCache(cs CacheSnapshot) {
	for _, ie := range cs.Inodes {
		ino := fs.byIno[ie.Ino]
		if ino == nil {
			ino = &Inode{Ino: ie.Ino}
			fs.byIno[ie.Ino] = ino
			if ie.Ino >= fs.nextIn {
				fs.nextIn = ie.Ino + 1
			}
		}
		delete(fs.byPath, ino.Path)
		ino.Path = ie.Path
		ino.Size = ie.Size
		ino.Mode = ie.Mode
		ino.UID = ie.UID
		ino.GID = ie.GID
		ino.Sync = ie.Sync
		ino.MTime = ie.MTime
		fs.byPath[ie.Path] = ino
		fs.charge(fs.costs().RestoreFsPerEntry)
	}
	for _, pe := range cs.Pages {
		ino := fs.byIno[pe.Ino]
		if ino == nil {
			continue
		}
		pg := fs.page(ino, pe.Idx, false)
		pg.own()
		copy(pg.data, pe.Data)
		pg.dirty = pe.Dirty
		pg.dnc = false
		if pe.Dirty {
			fs.scheduleWriteback(ino, pe.Idx)
		}
		fs.charge(fs.costs().RestoreFsPerEntry)
	}
}

// comparePageKeys orders pages by inode, then page index.
func comparePageKeys(a, b pageKey) int {
	if a.ino != b.ino {
		return cmp.Compare(a.ino, b.ino)
	}
	return cmp.Compare(a.idx, b.idx)
}

func (fs *FS) charge(d simtime.Duration) {
	if fs.Kernel != nil {
		fs.Kernel.Charge(d)
	}
}

func (fs *FS) costs() *simkernel.Costs {
	if fs.Kernel != nil {
		return fs.Kernel.Costs
	}
	return zeroCosts
}

var zeroCosts = &simkernel.Costs{}
