package simkernel

import (
	"bytes"
	"testing"
	"testing/quick"

	"nilicon/internal/simtime"
)

func newTestKernel() *Kernel { return NewKernel(simtime.NewClock()) }

func TestMmapAllocatesDisjointVMAs(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "c1")
	a := p.Mem.Mmap(3*PageSize, ProtRead|ProtWrite, "", p.PID, "c1")
	b := p.Mem.Mmap(PageSize, ProtRead|ProtWrite, "", p.PID, "c1")
	if a.Pages() != 3 || b.Pages() != 1 {
		t.Fatalf("page counts: %d, %d", a.Pages(), b.Pages())
	}
	if a.End > b.Start && b.End > a.Start {
		t.Fatalf("VMAs overlap: %v %v", a, b)
	}
}

func TestMmapRoundsUpToPage(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "")
	v := p.Mem.Mmap(1, ProtRead|ProtWrite, "", p.PID, "")
	if v.Pages() != 1 {
		t.Fatalf("1-byte mmap has %d pages, want 1", v.Pages())
	}
}

func TestMmapZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero-size mmap")
		}
	}()
	k := newTestKernel()
	p := k.NewProcess("test", "")
	p.Mem.Mmap(0, ProtRead, "", p.PID, "")
}

func TestWriteReadRoundTrip(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "")
	v := p.Mem.Mmap(4*PageSize, ProtRead|ProtWrite, "", p.PID, "")
	data := []byte("hello, checkpoint world")
	// Write straddling a page boundary.
	addr := v.Start + PageSize - 5
	if err := p.Mem.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	got, err := p.Mem.Read(addr, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

func TestWriteUnmappedFails(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "")
	if err := p.Mem.Write(0x500, []byte("x")); err == nil {
		t.Fatal("write to unmapped address succeeded")
	}
}

func TestWritePastVMAEndFails(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "")
	v := p.Mem.Mmap(PageSize, ProtRead|ProtWrite, "", p.PID, "")
	if err := p.Mem.Write(v.End-2, []byte("abcd")); err == nil {
		t.Fatal("write crossing VMA end succeeded")
	}
}

func TestWriteReadOnlyVMAFails(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "")
	v := p.Mem.Mmap(PageSize, ProtRead, "", p.PID, "")
	if err := p.Mem.Write(v.Start, []byte("x")); err == nil {
		t.Fatal("write to read-only VMA succeeded")
	}
}

func TestMunmapDropsPages(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "")
	v := p.Mem.Mmap(2*PageSize, ProtRead|ProtWrite, "", p.PID, "")
	if err := p.Mem.Write(v.Start, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if p.Mem.ResidentPages() != 1 {
		t.Fatalf("resident = %d, want 1", p.Mem.ResidentPages())
	}
	p.Mem.Munmap(v)
	if p.Mem.ResidentPages() != 0 {
		t.Fatalf("resident after munmap = %d, want 0", p.Mem.ResidentPages())
	}
	if len(p.Mem.VMAs()) != 0 {
		t.Fatal("VMA still listed after munmap")
	}
}

func TestSoftDirtyLifecycle(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "")
	p.Mem.SetSoftDirtyTracking(true)
	v := p.Mem.Mmap(8*PageSize, ProtRead|ProtWrite, "", p.PID, "")
	// Touch 3 pages.
	for i := 0; i < 3; i++ {
		if err := p.Mem.Write(v.Start+uint64(i)*PageSize, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	dirty := p.Mem.DirtyPageNumbers()
	if len(dirty) != 3 {
		t.Fatalf("dirty pages = %d, want 3", len(dirty))
	}
	p.Mem.ClearSoftDirtyBits()
	if len(p.Mem.DirtyPageNumbers()) != 0 {
		t.Fatal("dirty set non-empty after clear")
	}
	// Rewrite one page: only it becomes dirty again.
	if err := p.Mem.Write(v.Start+PageSize, []byte{2}); err != nil {
		t.Fatal(err)
	}
	dirty = p.Mem.DirtyPageNumbers()
	if len(dirty) != 1 || dirty[0] != v.Start/PageSize+1 {
		t.Fatalf("dirty after rewrite = %v", dirty)
	}
}

func TestDirtyPageNumbersSorted(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "")
	v := p.Mem.Mmap(64*PageSize, ProtRead|ProtWrite, "", p.PID, "")
	for _, i := range []int{40, 3, 17, 59, 0} {
		if err := p.Mem.Write(v.Start+uint64(i)*PageSize, []byte{9}); err != nil {
			t.Fatal(err)
		}
	}
	dirty := p.Mem.DirtyPageNumbers()
	for i := 1; i < len(dirty); i++ {
		if dirty[i] <= dirty[i-1] {
			t.Fatalf("dirty list not sorted: %v", dirty)
		}
	}
}

func TestTrackingOverheadSoftDirty(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "")
	p.Mem.SetSoftDirtyTracking(true)
	v := p.Mem.Mmap(4*PageSize, ProtRead|ProtWrite, "", p.PID, "")
	// First touches: minor faults only.
	for i := 0; i < 4; i++ {
		_ = p.Mem.Write(v.Start+uint64(i)*PageSize, []byte{1})
	}
	base := p.Mem.ConsumeTrackingOverhead()
	if base != 4*k.Costs.MinorFault {
		t.Fatalf("first-touch overhead = %v, want 4 minor faults (%v)", base, 4*k.Costs.MinorFault)
	}
	// Clear soft-dirty, rewrite 2 pages → 2 soft-dirty faults.
	p.Mem.ClearSoftDirtyBits()
	_ = p.Mem.Write(v.Start, []byte{2})
	_ = p.Mem.Write(v.Start+PageSize, []byte{2})
	_ = p.Mem.Write(v.Start, []byte{3}) // second write to same page: no extra fault
	d := p.Mem.ConsumeTrackingOverhead()
	if d != 2*k.Costs.SoftDirtyFault {
		t.Fatalf("soft-dirty overhead = %v, want %v", d, 2*k.Costs.SoftDirtyFault)
	}
}

func TestTrackingOverheadWriteProtect(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("vm", "")
	v := p.Mem.Mmap(4*PageSize, ProtRead|ProtWrite, "", p.PID, "")
	for i := 0; i < 4; i++ {
		_ = p.Mem.Write(v.Start+uint64(i)*PageSize, []byte{1})
	}
	p.Mem.ConsumeTrackingOverhead()
	p.Mem.WriteProtectAll()
	_ = p.Mem.Write(v.Start, []byte{2})
	_ = p.Mem.Write(v.Start, []byte{3}) // already unprotected
	_ = p.Mem.Write(v.Start+2*PageSize, []byte{2})
	d := p.Mem.ConsumeTrackingOverhead()
	if d != 2*k.Costs.VMExit {
		t.Fatalf("VM-exit overhead = %v, want %v", d, 2*k.Costs.VMExit)
	}
}

func TestTouchDirtiesExactCount(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "")
	v := p.Mem.Mmap(100*PageSize, ProtRead|ProtWrite, "", p.PID, "")
	if err := p.Mem.Touch(v, 10, 25, 0xAB); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Mem.DirtyPageNumbers()); got != 25 {
		t.Fatalf("dirty = %d, want 25", got)
	}
	if p.Mem.PageData(v.Start/PageSize + 10)[0] != 0xAB {
		t.Fatal("stamp byte not written")
	}
	if err := p.Mem.Touch(v, 90, 20, 1); err == nil {
		t.Fatal("out-of-range Touch succeeded")
	}
}

func TestInstallPageRestore(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "")
	v := p.Mem.Mmap(PageSize, ProtRead|ProtWrite, "", p.PID, "")
	content := bytes.Repeat([]byte{0x5A}, PageSize)
	p.Mem.InstallPage(v.Start/PageSize, content)
	got, err := p.Mem.Read(v.Start, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("installed page content mismatch")
	}
}

func TestInstallPageCopiesData(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "")
	v := p.Mem.Mmap(PageSize, ProtRead|ProtWrite, "", p.PID, "")
	buf := []byte{1, 2, 3}
	p.Mem.InstallPage(v.Start/PageSize, buf)
	buf[0] = 99
	if p.Mem.PageData(v.Start / PageSize)[0] != 1 {
		t.Fatal("InstallPage aliased caller's buffer")
	}
}

func TestInstallVMA(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "")
	v := p.Mem.InstallVMA(VMA{Start: 0x400000, End: 0x402000, Prot: ProtRead | ProtWrite})
	if p.Mem.FindVMA(0x401000) != v {
		t.Fatal("installed VMA not found")
	}
	// Subsequent Mmap must not collide.
	w := p.Mem.Mmap(PageSize, ProtRead, "", p.PID, "")
	if w.Start < v.End {
		t.Fatalf("mmap after InstallVMA collided: %v vs %v", w, v)
	}
}

func TestMappedFilesDeduplicated(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "")
	p.Mem.Mmap(PageSize, ProtRead|ProtExec, "/lib/libc.so", p.PID, "")
	p.Mem.Mmap(PageSize, ProtRead, "/lib/libc.so", p.PID, "")
	p.Mem.Mmap(PageSize, ProtRead, "/lib/libm.so", p.PID, "")
	files := p.Mem.MappedFiles()
	if len(files) != 2 {
		t.Fatalf("mapped files = %v, want 2 distinct", files)
	}
}

func TestProtString(t *testing.T) {
	if s := (ProtRead | ProtWrite).String(); s != "rw-" {
		t.Fatalf("Prot string = %q", s)
	}
	if s := (ProtRead | ProtExec).String(); s != "r-x" {
		t.Fatalf("Prot string = %q", s)
	}
}

// Property: any sequence of writes followed by reads returns exactly the
// written bytes (last-writer-wins per offset), using a flat model slice.
func TestPropertyMemoryMatchesFlatModel(t *testing.T) {
	const size = 16 * PageSize
	f := func(ops []struct {
		Off  uint16
		Data []byte
	}) bool {
		k := newTestKernel()
		p := k.NewProcess("prop", "")
		v := p.Mem.Mmap(size, ProtRead|ProtWrite, "", p.PID, "")
		model := make([]byte, size)
		for _, op := range ops {
			off := uint64(op.Off) % (size - 256)
			data := op.Data
			if len(data) > 256 {
				data = data[:256]
			}
			if err := p.Mem.Write(v.Start+off, data); err != nil {
				return false
			}
			copy(model[off:], data)
		}
		got, err := p.Mem.Read(v.Start, size)
		if err != nil {
			return false
		}
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: after ClearSoftDirtyBits, DirtyPageNumbers equals exactly the
// set of pages written afterwards.
func TestPropertyDirtySetMatchesWrites(t *testing.T) {
	f := func(pageIdxs []uint8) bool {
		k := newTestKernel()
		p := k.NewProcess("prop", "")
		p.Mem.SetSoftDirtyTracking(true)
		v := p.Mem.Mmap(256*PageSize, ProtRead|ProtWrite, "", p.PID, "")
		// Pre-fault everything, then clear.
		_ = p.Mem.Touch(v, 0, 256, 0)
		p.Mem.ClearSoftDirtyBits()
		want := make(map[uint64]bool)
		for _, i := range pageIdxs {
			addr := v.Start + uint64(i)*PageSize
			if err := p.Mem.Write(addr, []byte{0xFF}); err != nil {
				return false
			}
			want[addr/PageSize] = true
		}
		got := p.Mem.DirtyPageNumbers()
		if len(got) != len(want) {
			return false
		}
		for _, pn := range got {
			if !want[pn] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPageBufPoolExactSizeOnly(t *testing.T) {
	src := make([]byte, PageSize)
	src[7] = 7
	b := CopyPage(src)
	if len(b) != PageSize || b[7] != 7 {
		t.Fatalf("pooled copy len = %d, byte 7 = %d", len(b), b[7])
	}
	RecyclePage(b)
	odd := CopyPage(make([]byte, 100))
	if len(odd) != 100 {
		t.Fatalf("odd-size copy len = %d", len(odd))
	}
	RecyclePage(odd) // must be a no-op, not a pool poisoning
	if again := CopyPage(src); len(again) != PageSize {
		t.Fatalf("pool poisoned: len = %d", len(again))
	}
}
