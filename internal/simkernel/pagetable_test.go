package simkernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nilicon/internal/simtime"
)

// refPage and refSpace are a reference model of the address space: one
// map from page number to frame, visited in full for every scan, with
// the fault and dirty-tracking rules written out longhand. The page
// table under test must agree with it after every operation.
type refPage struct {
	data           []byte
	softDirty, wpr bool
}

type refSpace struct {
	costs        *Costs
	vmas         []VMA
	pages        map[uint64]*refPage
	softTracking bool
	wpTracking   bool
	overhead     simtime.Duration
}

func (m *refSpace) vmaAt(addr uint64) *VMA {
	for i := range m.vmas {
		if m.vmas[i].Start <= addr && addr < m.vmas[i].End {
			return &m.vmas[i]
		}
	}
	return nil
}

// covered reports whether [addr, addr+n) lies inside mapped VMAs.
func (m *refSpace) covered(addr uint64, n int) bool {
	for a := addr; a < addr+uint64(n); a++ {
		if m.vmaAt(a) == nil {
			return false
		}
	}
	return true
}

func (m *refSpace) access(pn uint64, write bool) *refPage {
	pg := m.pages[pn]
	if pg == nil {
		pg = &refPage{data: make([]byte, PageSize), softDirty: true}
		m.pages[pn] = pg
		m.overhead += m.costs.MinorFault
		return pg
	}
	if write {
		if !pg.softDirty && m.softTracking {
			m.overhead += m.costs.SoftDirtyFault
		}
		pg.softDirty = true
		if m.wpTracking && pg.wpr {
			pg.wpr = false
			m.overhead += m.costs.VMExit
		}
	}
	return pg
}

func (m *refSpace) write(addr uint64, data []byte) bool {
	if len(data) == 0 {
		return true
	}
	if !m.covered(addr, len(data)) || m.vmaAt(addr).Prot&ProtWrite == 0 {
		return false
	}
	for i, b := range data {
		a := addr + uint64(i)
		m.access(a/PageSize, true).data[a%PageSize] = b
	}
	return true
}

func (m *refSpace) read(addr uint64, n int) ([]byte, bool) {
	if !m.covered(addr, n) {
		return nil, false
	}
	out := make([]byte, n)
	for i := range out {
		a := addr + uint64(i)
		out[i] = m.access(a/PageSize, false).data[a%PageSize]
	}
	return out, true
}

func (m *refSpace) dirty() []uint64 {
	var out []uint64
	for pn, pg := range m.pages {
		if pg.softDirty {
			out = append(out, pn)
		}
	}
	slices.Sort(out)
	return out
}

func (m *refSpace) unmap(v VMA) {
	m.vmas = slices.DeleteFunc(m.vmas, func(x VMA) bool { return x.Start == v.Start })
	for pn := v.Start / PageSize; pn < v.End/PageSize; pn++ {
		delete(m.pages, pn)
	}
}

// TestPageTableMatchesReferenceModel drives random operation sequences
// against the page table and the reference model and compares the dirty
// list, resident count, every mapped page's contents and the tracking
// overhead after each step.
func TestPageTableMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runPageTableModel(t, seed, 300) })
	}
}

func runPageTableModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	k := newTestKernel()
	as := k.NewProcess("model", "").Mem
	m := &refSpace{costs: k.Costs, pages: map[uint64]*refPage{}}

	// pick returns a random live VMA of the space under test, or nil.
	pick := func() *VMA {
		if len(as.VMAs()) == 0 {
			return nil
		}
		return as.VMAs()[rng.Intn(len(as.VMAs()))]
	}
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	// lent holds every buffer the space has handed out (SharePage) or
	// been handed (a page-sized InstallPage), with the model's content
	// at that moment. A lent buffer is never written again, whatever
	// later steps do to its page.
	type lease struct {
		pn        uint64
		buf, want []byte
	}
	var lent []lease

	for step := 0; step < steps; step++ {
		var op string
		switch r := rng.Intn(22); {
		case r < 3 || len(as.VMAs()) == 0:
			op = "mmap"
			prot := ProtRead | ProtWrite
			if rng.Intn(5) == 0 {
				prot = ProtRead
			}
			v := as.Mmap(uint64(1+rng.Intn(12*PageSize)), prot, "", 1, "")
			m.vmas = append(m.vmas, VMA{Start: v.Start, End: v.End, Prot: v.Prot})
		case r < 4:
			op = "munmap"
			v := pick()
			m.unmap(*v)
			as.Munmap(v)
		case r < 9:
			op = "write"
			v := pick()
			// May run past the VMA's end into the guard gap.
			addr := v.Start + uint64(rng.Intn(int(v.End-v.Start)))
			data := randBytes(rng.Intn(2 * PageSize))
			if got, want := as.Write(addr, data) == nil, m.write(addr, data); got != want {
				t.Fatalf("step %d: Write(%#x, %d bytes) ok=%v, model ok=%v", step, addr, len(data), got, want)
			}
		case r < 11:
			op = "read"
			v := pick()
			addr := v.Start + uint64(rng.Intn(int(v.End-v.Start)))
			n := rng.Intn(2 * PageSize)
			got, err := as.Read(addr, n)
			want, ok := m.read(addr, n)
			if (err == nil) != ok || !bytes.Equal(got, want) {
				t.Fatalf("step %d: Read(%#x, %d) err=%v, model ok=%v, content equal=%v", step, addr, n, err, ok, bytes.Equal(got, want))
			}
		case r < 14:
			op = "touch"
			v := pick()
			first, count := rng.Intn(v.Pages()+1), rng.Intn(v.Pages()+1)
			stamp := byte(rng.Intn(256))
			err := as.Touch(v, first, count, stamp)
			if inRange := first+count <= v.Pages(); (err == nil) != inRange {
				t.Fatalf("step %d: Touch(%d+%d of %d) err=%v", step, first, count, v.Pages(), err)
			}
			if err == nil {
				for i := 0; i < count; i++ {
					m.access(v.Start/PageSize+uint64(first+i), true).data[0] = stamp
				}
			}
		case r < 16:
			op = "install"
			// Restore places VMAs at their checkpointed addresses; here,
			// a few pages above the highest mapping.
			start := uint64(0x10000)
			if vs := as.VMAs(); len(vs) > 0 {
				start = vs[len(vs)-1].End + uint64(rng.Intn(4))*PageSize
			}
			n := 1 + rng.Intn(8)
			v := as.InstallVMA(VMA{Start: start, End: start + uint64(n)*PageSize, Prot: ProtRead | ProtWrite})
			m.vmas = append(m.vmas, VMA{Start: v.Start, End: v.End, Prot: v.Prot})
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					continue
				}
				pn := v.Start/PageSize + uint64(i)
				data := randBytes(rng.Intn(PageSize + 1))
				if rng.Intn(2) == 0 {
					data = randBytes(PageSize)
				}
				as.InstallPage(pn, data)
				pg := &refPage{data: make([]byte, PageSize), softDirty: true}
				copy(pg.data, data)
				m.pages[pn] = pg
				if len(data) == PageSize {
					lent = append(lent, lease{pn, data, bytes.Clone(data)})
				}
			}
		case r < 18:
			op = "clear_refs"
			as.ClearSoftDirtyBits()
			for _, pg := range m.pages {
				pg.softDirty = false
			}
		case r < 19:
			op = "write_protect"
			as.WriteProtectAll()
			m.wpTracking = true
			for _, pg := range m.pages {
				pg.wpr = true
			}
		case r < 21:
			op = "share"
			v := pick()
			// Includes the page just past the end, which may be unmapped.
			pn := v.Start/PageSize + uint64(rng.Intn(v.Pages()+1))
			buf := as.SharePage(pn)
			pg := m.pages[pn]
			if (buf == nil) != (pg == nil) {
				t.Fatalf("step %d: SharePage(%#x) resident %v, model %v", step, pn, buf != nil, pg != nil)
			}
			if buf != nil {
				if !bytes.Equal(buf, pg.data) {
					t.Fatalf("step %d: SharePage(%#x) lent content differs from the model", step, pn)
				}
				lent = append(lent, lease{pn, buf, bytes.Clone(pg.data)})
			}
		default:
			op = "soft_tracking"
			on := rng.Intn(2) == 0
			as.SetSoftDirtyTracking(on)
			m.softTracking = on
		}
		checkAgainstModel(t, as, m, fmt.Sprintf("step %d (%s)", step, op))
		for _, l := range lent {
			if !bytes.Equal(l.buf, l.want) {
				t.Fatalf("step %d (%s): buffer lent for page %#x was written after lending", step, op, l.pn)
			}
		}
	}
}

func checkAgainstModel(t *testing.T, as *AddressSpace, m *refSpace, where string) {
	t.Helper()
	if got, want := as.DirtyPageNumbers(), m.dirty(); !slices.Equal(got, want) {
		t.Fatalf("%s: DirtyPageNumbers = %v, model %v", where, got, want)
	}
	if got, want := as.ResidentPages(), len(m.pages); got != want {
		t.Fatalf("%s: ResidentPages = %d, model %d", where, got, want)
	}
	if got, want := as.ConsumeTrackingOverhead(), m.overhead; got != want {
		t.Fatalf("%s: tracking overhead = %v, model %v", where, got, want)
	}
	m.overhead = 0
	if got, want := len(as.VMAs()), len(m.vmas); got != want {
		t.Fatalf("%s: %d VMAs, model %d", where, got, want)
	}
	for _, v := range m.vmas {
		// Also probe the page just past the end, which may be unmapped.
		for pn := v.Start / PageSize; pn <= v.End/PageSize; pn++ {
			var want []byte
			if pg := m.pages[pn]; pg != nil {
				want = pg.data
			}
			if got := as.PageData(pn); !bytes.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("%s: PageData(%#x) differs from the model (resident %v, model %v)", where, pn, got != nil, want != nil)
			}
		}
	}
}

func TestTouchRejectsStaleVMA(t *testing.T) {
	k := newTestKernel()
	a := k.NewProcess("a", "").Mem
	b := k.NewProcess("b", "").Mem
	va := a.Mmap(8*PageSize, ProtRead|ProtWrite, "", 1, "")
	// b maps a larger area at the same address: va does not span it.
	b.Mmap(16*PageSize, ProtRead|ProtWrite, "", 2, "")
	if err := b.Touch(va, 0, 4, 7); err == nil || !strings.Contains(err.Error(), "stale VMA") {
		t.Fatalf("Touch with a foreign VMA of another size: err=%v, want a stale-VMA error", err)
	}
	if b.ResidentPages() != 0 {
		t.Fatalf("rejected Touch faulted in %d pages", b.ResidentPages())
	}
	// A VMA restored with the same range is the same mapping: a worker
	// holding the pre-restore VMA may touch the restored one.
	c := k.NewProcess("c", "").Mem
	c.InstallVMA(VMA{Start: va.Start, End: va.End, Prot: va.Prot})
	if err := c.Touch(va, 2, 3, 9); err != nil {
		t.Fatalf("Touch with a VMA spanning a restored one: %v", err)
	}
	if got := c.PageData(va.Start/PageSize + 2); got == nil || got[0] != 9 {
		t.Fatal("Touch through a matching VMA did not stamp the receiver's page")
	}
	// An unmapped VMA is stale in its own address space too.
	a.Munmap(va)
	if err := a.Touch(va, 0, 1, 1); err == nil {
		t.Fatal("Touch of an unmapped VMA succeeded")
	}
	if a.ResidentPages() != 0 {
		t.Fatalf("Touch of an unmapped VMA faulted in %d pages", a.ResidentPages())
	}
}

func TestInstallPageOutsideVMAPanics(t *testing.T) {
	k := newTestKernel()
	as := k.NewProcess("restore", "").Mem
	v := as.InstallVMA(VMA{Start: 0x400000, End: 0x402000, Prot: ProtRead | ProtWrite})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "outside every VMA") {
			t.Fatalf("InstallPage past the VMA end: recovered %q, want an outside-every-VMA panic", msg)
		}
	}()
	as.InstallPage(v.End/PageSize, []byte{1})
}

// BenchmarkPagemapScan measures one epoch's tracking work on a
// redis-sized address space: 26,000 resident pages, 6,400 of them
// dirtied, then a pagemap scan and a clear_refs.
func BenchmarkPagemapScan(b *testing.B) {
	const resident, dirty = 26000, 6400
	k := newTestKernel()
	p := k.NewProcess("scan", "")
	v := p.Mem.Mmap(resident*PageSize, ProtRead|ProtWrite, "", p.PID, "")
	if err := p.Mem.Touch(v, 0, resident, 1); err != nil {
		b.Fatal(err)
	}
	p.Mem.SetSoftDirtyTracking(true)
	k.ClearRefs(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Mem.Touch(v, (i*977)%(resident-dirty), dirty, byte(i)); err != nil {
			b.Fatal(err)
		}
		if got := len(k.ReadPagemap(p)); got != dirty {
			b.Fatalf("pagemap found %d dirty pages, want %d", got, dirty)
		}
		k.ClearRefs(p)
	}
}
