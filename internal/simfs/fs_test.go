package simfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"nilicon/internal/simdisk"
	"nilicon/internal/simtime"
)

func newTestFS() (*FS, *simdisk.Disk, *simtime.Clock) {
	c := simtime.NewClock()
	d := simdisk.NewDisk()
	fs := New(c, d)
	return fs, d, c
}

func TestCreateOpenWriteRead(t *testing.T) {
	fs, _, _ := newTestFS()
	f := fs.Create("/data/log")
	if fs.Open("/data/log") != f {
		t.Fatal("Open did not find created file")
	}
	if err := fs.WriteAt(f, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAt(f, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("read %q", got)
	}
	if f.Size != 5 {
		t.Fatalf("size = %d", f.Size)
	}
}

func TestWriteAcrossPageBoundary(t *testing.T) {
	fs, _, _ := newTestFS()
	f := fs.Create("/f")
	data := bytes.Repeat([]byte{7}, 3*PageSize)
	if err := fs.WriteAt(f, PageSize-100, data); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadAt(f, PageSize-100, len(data))
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page write corrupted")
	}
}

func TestCreateExistingTruncates(t *testing.T) {
	fs, _, _ := newTestFS()
	f := fs.Create("/f")
	_ = fs.WriteAt(f, 0, []byte("old content"))
	f2 := fs.Create("/f")
	if f2 != f {
		t.Fatal("recreate changed inode identity")
	}
	if f.Size != 0 {
		t.Fatalf("size after truncate = %d", f.Size)
	}
	got, _ := fs.ReadAt(f, 0, 3)
	if !bytes.Equal(got, []byte{0, 0, 0}) {
		t.Fatalf("content after truncate = %q", got)
	}
}

func TestNegativeOffsetRejected(t *testing.T) {
	fs, _, _ := newTestFS()
	f := fs.Create("/f")
	if err := fs.WriteAt(f, -1, []byte("x")); err == nil {
		t.Fatal("negative write offset accepted")
	}
	if _, err := fs.ReadAt(f, -1, 1); err == nil {
		t.Fatal("negative read offset accepted")
	}
	if err := fs.WriteAt(nil, 0, []byte("x")); err == nil {
		t.Fatal("nil inode accepted")
	}
}

func TestWritebackAfterDelay(t *testing.T) {
	fs, d, c := newTestFS()
	f := fs.Create("/f")
	_ = fs.WriteAt(f, 0, []byte("persist-me"))
	if d.Writes() != 0 {
		t.Fatal("writeback happened synchronously")
	}
	if fs.DirtyPages() != 1 {
		t.Fatalf("dirty pages = %d", fs.DirtyPages())
	}
	c.RunFor(fs.WritebackDelay + simtime.Millisecond)
	if d.Writes() != 1 {
		t.Fatalf("disk writes = %d after writeback delay", d.Writes())
	}
	if fs.DirtyPages() != 0 {
		t.Fatal("page still dirty after writeback")
	}
}

func TestWritebackCoalescesSamePage(t *testing.T) {
	fs, d, c := newTestFS()
	f := fs.Create("/f")
	for i := 0; i < 10; i++ {
		_ = fs.WriteAt(f, int64(i), []byte{byte(i)})
	}
	c.Run()
	if d.Writes() != 1 {
		t.Fatalf("disk writes = %d, want 1 coalesced writeback", d.Writes())
	}
}

func TestSyncFileWritesThroughImmediately(t *testing.T) {
	fs, d, _ := newTestFS()
	f := fs.Create("/wal")
	f.Sync = true
	_ = fs.WriteAt(f, 0, []byte("entry"))
	if d.Writes() != 1 {
		t.Fatalf("O_SYNC write not immediate: disk writes = %d", d.Writes())
	}
}

func TestFsync(t *testing.T) {
	fs, d, _ := newTestFS()
	f := fs.Create("/f")
	_ = fs.WriteAt(f, 0, bytes.Repeat([]byte{1}, 2*PageSize))
	fs.Sync(f)
	if d.Writes() != 2 {
		t.Fatalf("fsync wrote %d blocks, want 2", d.Writes())
	}
}

func TestDNCLifecycle(t *testing.T) {
	fs, _, _ := newTestFS()
	f := fs.Create("/f")
	_ = fs.WriteAt(f, 0, []byte("v1"))
	if n := len(scanDNC(fs)); n != 1 {
		t.Fatalf("DNC pages = %d", n)
	}
	cs := fs.Fgetfc()
	if len(cs.Pages) != 1 {
		t.Fatalf("fgetfc pages = %d", len(cs.Pages))
	}
	if len(scanDNC(fs)) != 0 {
		t.Fatal("DNC not cleared by fgetfc")
	}
	// Unmodified: next fgetfc returns nothing.
	cs2 := fs.Fgetfc()
	if len(cs2.Pages) != 0 || len(cs2.Inodes) != 0 {
		t.Fatalf("second fgetfc = %d pages %d inodes, want empty", len(cs2.Pages), len(cs2.Inodes))
	}
	// Rewrite: DNC again, content is the new version.
	_ = fs.WriteAt(f, 0, []byte("v2"))
	cs3 := fs.Fgetfc()
	if len(cs3.Pages) != 1 || string(cs3.Pages[0].Data[:2]) != "v2" {
		t.Fatal("fgetfc after rewrite missing new content")
	}
}

// TestFgetfcIncludesInodeAttrChanges: an inode enters fgetfc when an
// attribute changes — on create, on a write that grows the file, and
// on a create that truncates an existing path — and not on a write
// that leaves its size alone.
func TestFgetfcIncludesInodeAttrChanges(t *testing.T) {
	fs, _, _ := newTestFS()
	f := fs.Create("/f")
	if cs := fs.Fgetfc(); len(cs.Inodes) != 1 || cs.Inodes[0].Ino != f.Ino {
		t.Fatalf("create not in fgetfc: %+v", cs.Inodes)
	}
	_ = fs.WriteAt(f, 0, []byte("grow"))
	if cs := fs.Fgetfc(); len(cs.Inodes) != 1 || cs.Inodes[0].Size != 4 {
		t.Fatalf("growing write not in fgetfc: %+v", cs.Inodes)
	}
	_ = fs.WriteAt(f, 0, []byte("same"))
	if cs := fs.Fgetfc(); len(cs.Inodes) != 0 || len(cs.Pages) != 1 {
		t.Fatalf("in-place write: %d inodes %d pages, want 0 and 1", len(cs.Inodes), len(cs.Pages))
	}
	if g := fs.Create("/f"); g != f {
		t.Fatal("creating an existing path made a new inode")
	}
	if cs := fs.Fgetfc(); len(cs.Inodes) != 1 || cs.Inodes[0].Size != 0 {
		t.Fatalf("truncating create not in fgetfc: %+v", cs.Inodes)
	}
}

// TestFgetfcLendsCopyOnWrite: Fgetfc and FgetfcFull lend the cache's
// own buffers instead of copying them, and the cache never writes a
// lent buffer again: a write after the snapshot changes the cache and
// leaves the snapshot's bytes as captured, and so does ApplyCache.
func TestFgetfcLendsCopyOnWrite(t *testing.T) {
	fs, _, _ := newTestFS()
	f := fs.Create("/f")
	_ = fs.WriteAt(f, 0, []byte("orig"))
	cs := fs.Fgetfc()
	lent := cs.Pages[0].Data
	if &lent[0] != &fs.cache[pageKey{f.Ino, 0}].data[0] {
		t.Fatal("Fgetfc copied the page instead of lending it")
	}
	full := fs.FgetfcFull()
	if &full.Pages[0].Data[0] != &lent[0] {
		t.Fatal("FgetfcFull did not re-lend the unwritten page's buffer")
	}
	_ = fs.WriteAt(f, 1, []byte("XY"))
	if got, _ := fs.ReadAt(f, 0, 4); string(got) != "oXYg" {
		t.Fatalf("cache reads %q after the write, want %q", got, "oXYg")
	}
	if string(lent[:4]) != "orig" {
		t.Fatalf("snapshot reads %q after a later write, want the captured %q", lent[:4], "orig")
	}
	cs2 := fs.Fgetfc()
	if len(cs2.Pages) != 1 || &cs2.Pages[0].Data[0] == &lent[0] {
		t.Fatal("the written page was not moved to a fresh buffer")
	}
	fs.ApplyCache(CacheSnapshot{Pages: []PageEntry{{Ino: f.Ino, Idx: 0, Data: []byte("made")}}})
	if string(cs2.Pages[0].Data[:4]) != "oXYg" {
		t.Fatalf("ApplyCache wrote a lent buffer: snapshot reads %q", cs2.Pages[0].Data[:4])
	}
	if got, _ := fs.ReadAt(f, 0, 4); string(got) != "made" {
		t.Fatalf("cache reads %q after ApplyCache, want %q", got, "made")
	}
}

func TestFgetfcDirtyFlagPreserved(t *testing.T) {
	fs, _, c := newTestFS()
	f := fs.Create("/f")
	_ = fs.WriteAt(f, 0, []byte("dirty"))
	cs := fs.Fgetfc()
	if !cs.Pages[0].Dirty {
		t.Fatal("page should be dirty (not yet written back)")
	}
	c.Run() // writeback happens
	_ = fs.WriteAt(f, PageSize, []byte("second"))
	c.Run()
	cs2 := fs.Fgetfc()
	if cs2.Pages[0].Dirty {
		t.Fatal("page already written back should snapshot as clean")
	}
}

func TestApplyCacheRestoresContentAndMetadata(t *testing.T) {
	// Checkpoint fs-cache state on one FS, apply to a fresh FS over a
	// different disk, and verify reads see the checkpointed content.
	fsA, _, _ := newTestFS()
	f := fsA.Create("/data")
	_ = fsA.WriteAt(f, 100, []byte("checkpointed-content"))
	f.UID, f.GID = 42, 43
	cs := fsA.Fgetfc()

	cB := simtime.NewClock()
	dB := simdisk.NewDisk()
	fsB := New(cB, dB)
	fsB.ApplyCache(cs)

	g := fsB.Open("/data")
	if g == nil {
		t.Fatal("restored file missing")
	}
	if g.UID != 42 || g.GID != 43 {
		t.Fatalf("restored ownership = %d:%d", g.UID, g.GID)
	}
	if g.Size != 120 {
		t.Fatalf("restored size = %d", g.Size)
	}
	got, _ := fsB.ReadAt(g, 100, 20)
	if string(got) != "checkpointed-content" {
		t.Fatalf("restored content = %q", got)
	}
	// Restored dirty pages must eventually reach the backup disk.
	cB.Run()
	if dB.Writes() == 0 {
		t.Fatal("restored dirty pages never written back")
	}
}

func TestApplyCachePreservesCleanPages(t *testing.T) {
	fsA, _, cA := newTestFS()
	f := fsA.Create("/f")
	_ = fsA.WriteAt(f, 0, []byte("clean"))
	cA.Run() // written back → page clean
	_ = fsA.WriteAt(f, PageSize, []byte("x"))
	cs := fsA.Fgetfc()

	cB := simtime.NewClock()
	dB := simdisk.NewDisk()
	fsB := New(cB, dB)
	fsB.ApplyCache(cs)
	cB.Run()
	// Only the dirty page should be written back at the backup.
	if dB.Writes() != 1 {
		t.Fatalf("backup writebacks = %d, want 1 (clean page skipped)", dB.Writes())
	}
}

func TestCacheSnapshotSize(t *testing.T) {
	fs, _, _ := newTestFS()
	f := fs.Create("/f")
	_ = fs.WriteAt(f, 0, []byte("x"))
	cs := fs.Fgetfc()
	if cs.Size() < PageSize {
		t.Fatalf("snapshot size = %d, want ≥ one page", cs.Size())
	}
}

func TestReadThroughFromDisk(t *testing.T) {
	// Content already on disk (e.g. backup disk after DRBD commit) must
	// be visible through a cold cache.
	c := simtime.NewClock()
	d := simdisk.NewDisk()
	fs1 := New(c, d)
	f := fs1.Create("/f")
	_ = fs1.WriteAt(f, 0, []byte("on-disk"))
	fs1.Sync(f)

	fs2 := New(c, d) // cold cache, same disk
	// Restore just the inode so the path resolves.
	fs2.ApplyCache(CacheSnapshot{Inodes: []InodeEntry{{Ino: f.Ino, Path: "/f", Size: 7}}})
	g := fs2.Open("/f")
	got, _ := fs2.ReadAt(g, 0, 7)
	if string(got) != "on-disk" {
		t.Fatalf("read-through = %q", got)
	}
}

// Property: a random sequence of writes is fully durable: after Fgetfc →
// ApplyCache onto a disk that received all synced writebacks, every byte
// reads back identically on the restored side.
func TestPropertyCheckpointRestorePreservesContent(t *testing.T) {
	f := func(writes []struct {
		Off  uint16
		Data []byte
	}) bool {
		fsA, dA, cA := newTestFS()
		file := fsA.Create("/f")
		model := make([]byte, 1<<17)
		maxEnd := int64(0)
		for _, w := range writes {
			off := int64(w.Off) % (1 << 16)
			data := w.Data
			if len(data) > 4096 {
				data = data[:4096]
			}
			if err := fsA.WriteAt(file, off, data); err != nil {
				return false
			}
			copy(model[off:], data)
			if end := off + int64(len(data)); end > maxEnd {
				maxEnd = end
			}
		}
		cA.RunFor(50 * simtime.Millisecond) // some (not all) writebacks may run
		cs := fsA.Fgetfc()

		// Backup: disk clone as of now + fs cache restore.
		cB := simtime.NewClock()
		fsB := New(cB, dA.Clone())
		fsB.ApplyCache(cs)
		g := fsB.Open("/f")
		if g == nil {
			return len(writes) == 0
		}
		got, err := fsB.ReadAt(g, 0, int(maxEnd))
		if err != nil {
			return false
		}
		return bytes.Equal(got, model[:maxEnd])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// recordingStore wraps a block store and records the order blocks are
// written, so tests can assert writeback sequencing.
type recordingStore struct {
	inner BlockStore
	order []uint64
}

func (r *recordingStore) WriteBlock(bn uint64, data []byte) error {
	r.order = append(r.order, bn)
	return r.inner.WriteBlock(bn, data)
}
func (r *recordingStore) ReadBlock(bn uint64) []byte { return r.inner.ReadBlock(bn) }

// TestSyncWritebackOrderDeterministic: Sync must write a file's dirty
// pages back in ascending page order regardless of the order the pages
// were dirtied in (which shapes the cache map's iteration history).
// Regression for a map-order iteration in Sync that made the
// block-write sequence — and with it the virtual-time cost ordering —
// vary between byte-identical runs.
func TestSyncWritebackOrderDeterministic(t *testing.T) {
	perms := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{7, 6, 5, 4, 3, 2, 1, 0},
		{3, 0, 6, 1, 7, 2, 5, 4},
		{5, 2, 7, 0, 4, 6, 1, 3},
	}
	var want []uint64
	for run, perm := range perms {
		c := simtime.NewClock()
		rec := &recordingStore{inner: simdisk.NewDisk()}
		fs := New(c, rec)
		fs.WritebackDelay = 0 // no background flusher: Sync does all writeback
		f := fs.Create("/f")
		for _, pg := range perm {
			if err := fs.WriteAt(f, int64(pg)*PageSize, []byte{byte(pg + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		rec.order = nil
		fs.Sync(f)
		if len(rec.order) != len(perm) {
			t.Fatalf("run %d: %d writebacks, want %d", run, len(rec.order), len(perm))
		}
		for i := 1; i < len(rec.order); i++ {
			if rec.order[i-1] >= rec.order[i] {
				t.Fatalf("run %d: writeback order not ascending: %v", run, rec.order)
			}
		}
		if run == 0 {
			want = append([]uint64(nil), rec.order...)
		} else if len(rec.order) != len(want) {
			t.Fatalf("run %d: order diverged: %v vs %v", run, rec.order, want)
		} else {
			for i := range want {
				if rec.order[i] != want[i] {
					t.Fatalf("run %d: order diverged: %v vs %v", run, rec.order, want)
				}
			}
		}
	}
}
