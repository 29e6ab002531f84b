package criu

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"nilicon/internal/simtime"
)

// storeImpls lets every test run against both layouts' cost models.
func storeImpls() map[string]func() *PageStore {
	return map[string]func() *PageStore{
		"list":  func() *PageStore { return NewPageStore(false) },
		"radix": func() *PageStore { return NewPageStore(true) },
	}
}

func TestPageStorePutGet(t *testing.T) {
	for name, mk := range storeImpls() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.BeginCheckpoint()
			s.Put(42, []byte("page42"))
			if got := s.Get(42); string(got) != "page42" {
				t.Fatalf("Get = %q", got)
			}
			if s.Get(43) != nil {
				t.Fatal("absent key returned data")
			}
			if s.Len() != 1 {
				t.Fatalf("Len = %d", s.Len())
			}
		})
	}
}

func TestPageStoreOverwriteKeepsLatest(t *testing.T) {
	for name, mk := range storeImpls() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.BeginCheckpoint()
			s.Put(7, []byte("v1"))
			s.BeginCheckpoint()
			s.Put(7, []byte("v2"))
			if got := s.Get(7); string(got) != "v2" {
				t.Fatalf("Get after overwrite = %q", got)
			}
			if s.Len() != 1 {
				t.Fatalf("Len = %d after overwrite, want 1", s.Len())
			}
		})
	}
}

// PutOwned hands back exactly the slice it replaced, so the backup can
// recycle a superseded page buffer.
func TestPageStorePutOwnedReturnsReplaced(t *testing.T) {
	for name, mk := range storeImpls() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			v1, v2 := []byte("v1"), []byte("v2")
			s.BeginCheckpoint()
			if old := s.PutOwned(7, v1); old != nil {
				t.Fatalf("PutOwned on a new key returned %q", old)
			}
			s.PutOwned(8, []byte("other"))
			s.BeginCheckpoint()
			if old := s.PutOwned(7, v2); &old[0] != &v1[0] {
				t.Fatalf("PutOwned returned %q, want the replaced slice", old)
			}
			if got := s.Get(7); &got[0] != &v2[0] || s.Len() != 2 {
				t.Fatalf("Get = %q, Len = %d after PutOwned", got, s.Len())
			}
		})
	}
}

func TestPageStorePutCopies(t *testing.T) {
	for name, mk := range storeImpls() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			buf := []byte("mutate-me")
			s.Put(1, buf)
			buf[0] = 'X'
			if string(s.Get(1)) != "mutate-me" {
				t.Fatal("store aliased caller buffer")
			}
		})
	}
}

func TestPageStoreForEachSorted(t *testing.T) {
	for name, mk := range storeImpls() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			for _, k := range []uint64{500, 2, 1 << 30, 77} {
				s.Put(k, []byte{byte(k)})
			}
			var keys []uint64
			s.ForEach(func(k uint64, _ []byte) { keys = append(keys, k) })
			if len(keys) != 4 {
				t.Fatalf("visited %d keys", len(keys))
			}
			for i := 1; i < len(keys); i++ {
				if keys[i] <= keys[i-1] {
					t.Fatalf("not sorted: %v", keys)
				}
			}
		})
	}
}

func TestListStoreCostGrowsWithCheckpoints(t *testing.T) {
	s := NewPageStore(false)
	// Many checkpoints, each dirtying a fresh page: later Puts must scan
	// more directories.
	for ck := 0; ck < 50; ck++ {
		s.BeginCheckpoint()
		s.Put(uint64(1000+ck), []byte{1})
	}
	early := s.Cost()
	s.BeginCheckpoint()
	s.Put(99999, []byte{1})
	lateDelta := s.Cost() - early
	if lateDelta <= costListPerDir*10 {
		t.Fatalf("late put cost %v; should scan ~51 dirs", lateDelta)
	}
	if s.dirs != 51 {
		t.Fatalf("dirs = %d", s.dirs)
	}
}

func TestRadixStoreCostConstant(t *testing.T) {
	s := NewPageStore(true)
	for ck := 0; ck < 50; ck++ {
		s.BeginCheckpoint()
		s.Put(uint64(1000+ck), []byte{1})
	}
	before := s.Cost()
	s.Put(99999, []byte{1})
	if d := s.Cost() - before; d != costRadixPut {
		t.Fatalf("radix put cost = %v, want constant %v", d, costRadixPut)
	}
}

func TestRadixBeatsListAfterManyCheckpoints(t *testing.T) {
	list, radix := NewPageStore(false), NewPageStore(true)
	for ck := 0; ck < 100; ck++ {
		list.BeginCheckpoint()
		radix.BeginCheckpoint()
		for p := 0; p < 10; p++ {
			key := uint64(ck*10 + p)
			list.Put(key, []byte{1})
			radix.Put(key, []byte{1})
		}
	}
	if radix.Cost()*5 >= list.Cost() {
		t.Fatalf("radix (%v) should be ≫ cheaper than list (%v)", radix.Cost(), list.Cost())
	}
}

// Property: both stores agree with a plain map model under arbitrary
// Put/BeginCheckpoint sequences.
func TestPropertyStoresMatchMapModel(t *testing.T) {
	f := func(ops []struct {
		Key uint16
		Val byte
		Cut bool
	}) bool {
		model := make(map[uint64][]byte)
		for name, mk := range storeImpls() {
			s := mk()
			for k := range model {
				delete(model, k)
			}
			for _, op := range ops {
				if op.Cut {
					s.BeginCheckpoint()
				}
				key := uint64(op.Key)
				s.Put(key, []byte{op.Val})
				model[key] = []byte{op.Val}
			}
			if s.Len() != len(model) {
				fmt.Printf("%s: len %d vs model %d\n", name, s.Len(), len(model))
				return false
			}
			for k, v := range model {
				if !bytes.Equal(s.Get(k), v) {
					return false
				}
			}
			seen := 0
			ok := true
			s.ForEach(func(k uint64, v []byte) {
				seen++
				if !bytes.Equal(model[k], v) {
					ok = false
				}
			})
			if !ok || seen != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPageStoreRadixVsList reports the modeled backup CPU per
// received page for each layout. Both run on the same radix tree, so
// wall time no longer separates them; the virtual cost does, and the
// list's grows with the number of checkpoints.
func BenchmarkPageStoreRadixVsList(b *testing.B) {
	page := bytes.Repeat([]byte{1}, 4096)
	for _, n := range []int{10, 100} {
		for _, layout := range []struct {
			name      string
			optimized bool
		}{{"list", false}, {"radix", true}} {
			b.Run(fmt.Sprintf("%s/checkpoints=%d", layout.name, n), func(b *testing.B) {
				var virtual simtime.Duration
				puts := 0
				for i := 0; i < b.N; i++ {
					s := NewPageStore(layout.optimized)
					for ck := 0; ck < n; ck++ {
						s.BeginCheckpoint()
						for p := 0; p < 64; p++ {
							s.Put(uint64((ck*13+p)%512), page)
							puts++
						}
					}
					virtual += s.Cost()
				}
				b.ReportMetric(float64(virtual)/float64(puts), "virtual-ns/put")
			})
		}
	}
}

func TestPageStoreForRange(t *testing.T) {
	keys := []uint64{0, 3, 5, 1 << 28, (1 << 28) + 7, (2 << 28) - 1, 2 << 28, 1<<36 - 1}
	for name, mk := range storeImpls() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.BeginCheckpoint()
			for _, k := range keys {
				s.Put(k, []byte(fmt.Sprintf("p%d", k)))
			}
			lo, hi := uint64(1<<28), uint64(2<<28)
			var got []uint64
			s.ForRange(lo, hi, func(key uint64, data []byte) {
				if want := fmt.Sprintf("p%d", key); string(data) != want {
					t.Fatalf("data for %d = %q, want %q", key, data, want)
				}
				got = append(got, key)
			})
			want := []uint64{1 << 28, (1 << 28) + 7, (2 << 28) - 1}
			if len(got) != len(want) {
				t.Fatalf("ForRange keys = %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("ForRange keys = %v (unsorted or wrong), want %v", got, want)
				}
			}
			// Empty and inverted ranges visit nothing.
			s.ForRange(6, 6, func(uint64, []byte) { t.Fatal("empty range visited") })
			s.ForRange(10, 5, func(uint64, []byte) { t.Fatal("inverted range visited") })
		})
	}
}

func TestPageStoreForRangeMatchesFilteredForEach(t *testing.T) {
	for name, mk := range storeImpls() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			rng := func(n uint64) uint64 { return (n*2654435761 + 12345) % (1 << 20) }
			s.BeginCheckpoint()
			for i := uint64(0); i < 500; i++ {
				s.Put(rng(i), []byte{byte(i)})
			}
			lo, hi := uint64(1<<10), uint64(1<<19)
			want := map[uint64]byte{}
			s.ForEach(func(k uint64, d []byte) {
				if k >= lo && k < hi {
					want[k] = d[0]
				}
			})
			var prev uint64
			seen := 0
			s.ForRange(lo, hi, func(k uint64, d []byte) {
				if seen > 0 && k <= prev {
					t.Fatalf("keys not ascending: %d after %d", k, prev)
				}
				prev = k
				if v, ok := want[k]; !ok || v != d[0] {
					t.Fatalf("unexpected key %d", k)
				}
				seen++
			})
			if seen != len(want) {
				t.Fatalf("ForRange visited %d keys, ForEach filter found %d", seen, len(want))
			}
		})
	}
}

// listStore is stock CRIU's page store as it really is: a linked list
// of checkpoint directories, each holding that checkpoint's pages. For
// every received page the list is walked from the oldest directory to
// find and remove a previous copy. PageStore charges this walk by
// formula (NewPageStore(false)); listStore performs it, as the
// reference that formula is checked against.
type listStore struct {
	dirs [][]pageRec
	cost simtime.Duration
	n    int
}

type pageRec struct {
	key  uint64
	data []byte
}

func (s *listStore) BeginCheckpoint() { s.dirs = append(s.dirs, nil) }

func (s *listStore) Put(key uint64, data []byte) {
	s.PutOwned(key, append([]byte(nil), data...))
}

func (s *listStore) PutOwned(key uint64, data []byte) (old []byte) {
	if len(s.dirs) == 0 {
		s.dirs = append(s.dirs, nil)
	}
	found := false
	for di := 0; di < len(s.dirs) && !found; di++ {
		s.cost += costListPerDir
		dir := s.dirs[di]
		for i := range dir {
			if dir[i].key == key {
				old = dir[i].data
				last := len(dir) - 1
				dir[i] = dir[last]
				s.dirs[di] = dir[:last]
				found = true
				break
			}
		}
	}
	if !found {
		s.n++
	}
	cur := len(s.dirs) - 1
	s.dirs[cur] = append(s.dirs[cur], pageRec{key: key, data: data})
	s.cost += costListAppend
	return old
}

func (s *listStore) Get(key uint64) []byte {
	for di := len(s.dirs) - 1; di >= 0; di-- {
		for _, r := range s.dirs[di] {
			if r.key == key {
				return r.data
			}
		}
	}
	return nil
}

func (s *listStore) Cost() simtime.Duration { return s.cost }

func (s *listStore) ForEach(fn func(uint64, []byte)) {
	var all []pageRec
	for _, dir := range s.dirs {
		all = append(all, dir...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	for _, r := range all {
		fn(r.key, r.data)
	}
}

// Property: under arbitrary BeginCheckpoint/Put/PutOwned sequences the
// stock-layout PageStore charges exactly what walking the real list
// costs, and holds and returns the same pages.
func TestStockStoreMatchesListReference(t *testing.T) {
	f := func(ops []struct {
		Kind uint8
		Key  uint16
	}) bool {
		ref, s := &listStore{}, NewPageStore(false)
		owned := map[uint64]bool{} // the key's latest copy came from PutOwned
		for i, op := range ops {
			// Keys spread over several radix leaves and repeat often.
			key := uint64(op.Key%29) * 4099
			val := []byte{byte(i), byte(i >> 8)}
			var old, refOld []byte
			switch op.Kind % 3 {
			case 0:
				ref.BeginCheckpoint()
				s.BeginCheckpoint()
				continue
			case 1:
				ref.Put(key, val)
				s.Put(key, val)
				owned[key] = false
			case 2:
				wasOwned := owned[key]
				refOld = ref.PutOwned(key, val)
				old = s.PutOwned(key, val)
				owned[key] = true
				if (old == nil) != (refOld == nil) || !bytes.Equal(old, refOld) {
					t.Logf("op %d: PutOwned(%d) returned %v, reference %v", i, key, old, refOld)
					return false
				}
				if wasOwned && &old[0] != &refOld[0] {
					t.Logf("op %d: PutOwned(%d) returned a different buffer than the reference", i, key)
					return false
				}
			}
			if s.Cost() != ref.Cost() {
				t.Logf("op %d: cost %v, reference %v", i, s.Cost(), ref.Cost())
				return false
			}
		}
		if s.Cost() != ref.Cost() || s.Len() != ref.n {
			t.Logf("cost %v len %d, reference cost %v len %d", s.Cost(), s.Len(), ref.Cost(), ref.n)
			return false
		}
		for k := uint64(0); k < 29; k++ {
			if got, want := s.Get(k*4099), ref.Get(k*4099); !bytes.Equal(got, want) || (got == nil) != (want == nil) {
				t.Logf("Get(%d) = %v, reference %v", k*4099, got, want)
				return false
			}
		}
		var got, want []pageRec
		s.ForEach(func(k uint64, d []byte) { got = append(got, pageRec{k, d}) })
		ref.ForEach(func(k uint64, d []byte) { want = append(want, pageRec{k, d}) })
		if len(got) != len(want) {
			t.Logf("ForEach visited %d pages, reference %d", len(got), len(want))
			return false
		}
		for i := range want {
			if got[i].key != want[i].key || !bytes.Equal(got[i].data, want[i].data) {
				t.Logf("ForEach page %d = %d:%v, reference %d:%v", i, got[i].key, got[i].data, want[i].key, want[i].data)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
