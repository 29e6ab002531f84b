package simfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nilicon/internal/simdisk"
	"nilicon/internal/simkernel"
	"nilicon/internal/simtime"
)

// scanDNC is the full-scan reference: every cached page whose DNC flag
// is set, in Fgetfc's (inode, index) order.
func scanDNC(fs *FS) []pageKey {
	var keys []pageKey
	for k, pg := range fs.cache {
		if pg.dnc {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, comparePageKeys)
	return keys
}

// TestDNCListMatchesReferenceModel drives random WriteAt, truncate,
// ApplyCache, Fgetfc and FgetfcFull sequences and checks, after every
// step, that DNCPages and the DNC flags agree with a model set of the
// pages written since they were last checkpointed, and that each Fgetfc
// returns exactly the full scan's pages, in its order, with their
// content, charging one FgetfcPerEntry per entry. Every snapshot page
// ever returned must keep its capture-time bytes: the cache lends its
// buffers and must copy before writing one.
func TestDNCListMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runDNCModel(t, seed, 300) })
	}
}

func runDNCModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	clock := simtime.NewClock()
	fs := New(clock, simdisk.NewDisk())
	fs.Kernel = simkernel.NewKernel()
	perEntry := fs.Kernel.Costs.FgetfcPerEntry
	paths := []string{"/a", "/b", "/c"}
	for _, p := range paths {
		fs.Create(p)
	}
	fs.Open("/c").Sync = true
	model := map[pageKey]bool{} // pages written since last checkpointed
	type lentPage struct{ data, captured []byte }
	var lent []lentPage
	keep := func(cs CacheSnapshot) {
		for _, pe := range cs.Pages {
			lent = append(lent, lentPage{pe.Data, bytes.Clone(pe.Data)})
		}
	}

	for step := 0; step < steps; step++ {
		ino := fs.Open(paths[rng.Intn(len(paths))])
		var op string
		switch r := rng.Intn(20); {
		case r < 9:
			op = "write"
			off := int64(rng.Intn(6 * PageSize))
			data := make([]byte, rng.Intn(2*PageSize))
			rng.Read(data)
			if err := fs.WriteAt(ino, off, data); err != nil {
				t.Fatal(err)
			}
			for idx := off / PageSize; len(data) > 0 && idx <= (off+int64(len(data))-1)/PageSize; idx++ {
				model[pageKey{ino.Ino, idx}] = true
			}
		case r < 10:
			op = "truncate"
			fs.Create(ino.Path)
			for k := range model {
				if k.ino == ino.Ino {
					delete(model, k)
				}
			}
		case r < 12:
			op = "apply"
			var cs CacheSnapshot
			for i := rng.Intn(4); i > 0; i-- {
				k := pageKey{ino.Ino, int64(rng.Intn(6))}
				cs.Pages = append(cs.Pages, PageEntry{Ino: k.ino, Idx: k.idx, Data: bytes.Repeat([]byte{byte(step)}, PageSize), Dirty: rng.Intn(2) == 0})
				delete(model, k)
			}
			fs.ApplyCache(cs)
		case r < 13:
			op = "full"
			keep(fs.FgetfcFull())
			clear(model)
		case r < 14:
			op = "tick"
			clock.RunFor(simtime.Duration(rng.Intn(300)) * simtime.Millisecond)
		default:
			op = "fgetfc"
			want := scanDNC(fs)
			var content [][]byte
			for _, k := range want {
				data, err := fs.ReadAt(fs.byIno[k.ino], k.idx*PageSize, PageSize)
				if err != nil {
					t.Fatal(err)
				}
				content = append(content, data)
			}
			m := fs.Kernel.StartMeter()
			cs := fs.Fgetfc()
			if charged, entries := m.Stop(), len(cs.Pages)+len(cs.Inodes); charged != simtime.Duration(entries)*perEntry {
				t.Fatalf("step %d: Fgetfc charged %v for %d entries, want %v each", step, charged, entries, perEntry)
			}
			if len(cs.Pages) != len(want) {
				t.Fatalf("step %d: Fgetfc returned %d pages, full scan %d", step, len(cs.Pages), len(want))
			}
			for i, pe := range cs.Pages {
				if (pageKey{pe.Ino, pe.Idx}) != want[i] || !bytes.Equal(pe.Data, content[i]) {
					t.Fatalf("step %d: Fgetfc entry %d is page %d/%d, full scan has %v (content equal %v)",
						step, i, pe.Ino, pe.Idx, want[i], bytes.Equal(pe.Data, content[i]))
				}
				if pe.Dirty != fs.cache[want[i]].dirty {
					t.Fatalf("step %d: Fgetfc entry %d Dirty=%v, page dirty=%v", step, i, pe.Dirty, fs.cache[want[i]].dirty)
				}
			}
			keep(cs)
			clear(model)
		}
		for i, lp := range lent {
			if !bytes.Equal(lp.data, lp.captured) {
				t.Fatalf("step %d (%s): snapshot page %d changed after its capture", step, op, i)
			}
		}
		got := scanDNC(fs)
		var wantKeys []pageKey
		for k := range model {
			wantKeys = append(wantKeys, k)
		}
		slices.SortFunc(wantKeys, comparePageKeys)
		if !slices.Equal(got, wantKeys) {
			t.Fatalf("step %d (%s): DNC pages %v, model %v", step, op, got, wantKeys)
		}
	}
}
