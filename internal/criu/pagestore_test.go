package criu

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

// storeImpls lets every test run against both implementations.
func storeImpls() map[string]func() PageStore {
	return map[string]func() PageStore{
		"list":  func() PageStore { return NewListStore() },
		"radix": func() PageStore { return NewRadixStore() },
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
	s := NewListStore()
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
	if s.Dirs() != 51 {
		t.Fatalf("dirs = %d", s.Dirs())
	}
}

func TestRadixStoreCostConstant(t *testing.T) {
	s := NewRadixStore()
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
	list, radix := NewListStore(), NewRadixStore()
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

func BenchmarkPageStoreRadixVsList(b *testing.B) {
	page := bytes.Repeat([]byte{1}, 4096)
	for _, n := range []int{10, 100} {
		b.Run(fmt.Sprintf("list/checkpoints=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := NewListStore()
				for ck := 0; ck < n; ck++ {
					s.BeginCheckpoint()
					for p := 0; p < 64; p++ {
						s.Put(uint64((ck*13+p)%512), page)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("radix/checkpoints=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := NewRadixStore()
				for ck := 0; ck < n; ck++ {
					s.BeginCheckpoint()
					for p := 0; p < 64; p++ {
						s.Put(uint64((ck*13+p)%512), page)
					}
				}
			}
		})
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
